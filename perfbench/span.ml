(* In-memory spans recorded by the benchmark around its own calls into
   the library's public functions.  Spans stay in memory until the run
   ends; [write_chrome] then dumps them as Chrome trace-event JSON (open
   it in chrome://tracing or https://ui.perfetto.dev).

   A span is a name, a wall-clock interval, the span that caused it and
   the op it belongs to.  Recording is off unless [enable] is called, so
   the untraced runs pay one boolean test per call site. *)

type t = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** [-1] for an op's root *)
  start : float;  (** seconds, Unix epoch *)
  mutable stop : float;
}

let on = ref false
let recorded : t list ref = ref []
let next_id = ref 0
let stack : t list ref = ref []
let current_op = ref 0

let reset () =
  recorded := [];
  next_id := 0;
  stack := [];
  current_op := 0

let enable b = on := b
let enabled () = !on

let fresh ~name ~parent ~start ~stop =
  let s = { id = !next_id; name; op = !current_op; parent; start; stop } in
  incr next_id;
  recorded := s :: !recorded;
  s

let parent_id () = match !stack with p :: _ -> p.id | [] -> -1

(* [f ()] inside a span named [name], child of the innermost open span *)
let with_ name f =
  if not !on then f ()
  else begin
    let s =
      fresh ~name ~parent:(parent_id ()) ~start:(Unix.gettimeofday ())
        ~stop:nan
    in
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- Unix.gettimeofday ();
        stack := List.tl !stack)
      f
  end

(* the root span of op [op] *)
let op op f =
  current_op := op;
  with_ "op" f

(* a record whose interval is known but was not timed here (the search's
   per-level walls), as a child of the innermost open span *)
let child ~name ~start ~stop =
  if !on then ignore (fresh ~name ~parent:(parent_id ()) ~start ~stop)

(* the most recently closed span named [name] (for its interval) *)
let last name = List.find_opt (fun s -> s.name = name) !recorded

let all () = List.rev !recorded
let duration s = s.stop -. s.start

(* self time: duration minus the union of the children's intervals *)
let self_times spans =
  let kids = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent s)
    spans;
  List.map
    (fun s ->
      let cs =
        List.sort (fun a b -> compare a.start b.start) (Hashtbl.find_all kids s.id)
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) c ->
            let lo = Float.max c.start reach and hi = Float.min c.stop s.stop in
            if hi > lo then (acc +. (hi -. lo), hi) else (acc, Float.max reach hi))
          (0., s.start) cs
      in
      (s, duration s -. covered))
    spans

(* Well-formedness of a span forest: every span closed, each child
   inside its parent and of the parent's op, self time >= 0, and one
   root per op.  [Error] names the first violation. *)
let check spans =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let roots = Hashtbl.create 64 in
  (* clock resolution: intervals may disagree by a microsecond *)
  let eps = 1e-6 in
  let problem =
    List.find_map
      (fun s ->
        if Float.is_nan s.stop || s.stop < s.start then
          Some (Printf.sprintf "span %d (%s) is not closed" s.id s.name)
        else if s.parent < 0 then begin
          Hashtbl.replace roots s.op
            (1 + Option.value ~default:0 (Hashtbl.find_opt roots s.op));
          None
        end
        else
          match Hashtbl.find_opt by_id s.parent with
          | None -> Some (Printf.sprintf "span %d has no parent %d" s.id s.parent)
          | Some p ->
            if p.op <> s.op then
              Some (Printf.sprintf "span %d crosses ops %d/%d" s.id p.op s.op)
            else if s.start < p.start -. eps || s.stop > p.stop +. eps then
              Some
                (Printf.sprintf "span %d (%s) leaves its parent %d (%s)" s.id
                   s.name p.id p.name)
            else None)
      spans
  in
  match problem with
  | Some p -> Error p
  | None -> (
    match
      List.find_opt (fun (_, t) -> t < -.eps) (self_times spans)
    with
    | Some (s, t) ->
      Error (Printf.sprintf "span %d (%s) has self time %g" s.id s.name t)
    | None -> (
      let ops = List.sort_uniq compare (List.map (fun s -> s.op) spans) in
      match
        List.find_opt
          (fun op -> Hashtbl.find_opt roots op <> Some 1)
          ops
      with
      | Some op -> Error (Printf.sprintf "op %d does not have exactly one root" op)
      | None -> Ok ()))

let write_chrome path spans =
  let oc = open_out path in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \
         \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \"op\": %d}}"
        (if i = 0 then "" else ",\n")
        s.name
        ((s.start -. t0) *. 1e6)
        (duration s *. 1e6)
        s.id s.parent s.op)
    spans;
  output_string oc "\n]}\n";
  close_out oc

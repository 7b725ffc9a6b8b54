(* Tests of the benchmark itself (bench.exe --selftest):
   - span trees: a property test over random nested spans, plus the
     violations [Span.check] must catch;
   - every workload's traced run passes its output checks twice with one
     seed, and its exact counters repeat exactly. *)

let failures = ref 0

let expect ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr failures;
        Printf.printf "FAIL %s\n%!" msg
      end)
    fmt

let busy_wait dt =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < dt do () done

(* random span forests: nested calls of random depth and fan-out, some
   with synthesized children, over several ops *)
let random_forest rng =
  Span.reset ();
  Span.enable true;
  let rec nest depth =
    let k = if depth = 0 then 0 else Parqo.Rng.int rng 3 in
    for j = 1 to k do
      Span.with_ (Printf.sprintf "d%d.%d" depth j) (fun () ->
          if Parqo.Rng.bool rng then busy_wait 1e-5;
          nest (depth - 1))
    done;
    if Parqo.Rng.int rng 4 = 0 then begin
      let stop = Unix.gettimeofday () in
      Span.child ~name:"synth" ~start:stop ~stop
    end
  in
  for op = 0 to 1 + Parqo.Rng.int rng 4 do
    Span.op op (fun () -> nest (1 + Parqo.Rng.int rng 3))
  done;
  Span.enable false;
  Span.all ()

let span_properties () =
  let rng = Parqo.Rng.create 11 in
  for trial = 1 to 200 do
    let spans = random_forest rng in
    expect (Span.check spans = Ok ()) "trial %d: random forest rejected: %s" trial
      (match Span.check spans with Error e -> e | Ok () -> "");
    let selfs = Span.self_times spans in
    expect (List.for_all (fun (_, t) -> t >= -1e-9) selfs) "trial %d: negative self time" trial;
    (* the self times of an op's spans add up to its root's duration *)
    List.iter
      (fun (root : Span.t) ->
        if root.Span.parent < 0 then begin
          let sum =
            List.fold_left
              (fun a ((s : Span.t), t) -> if s.Span.op = root.Span.op then a +. t else a)
              0. selfs
          in
          expect (Float.abs (sum -. Span.duration root) < 1e-6)
            "trial %d: self times of op %d sum to %g, root lasts %g" trial root.Span.op sum
            (Span.duration root)
        end)
      spans
  done;
  (* violations the checker must catch *)
  let mk id parent op start stop = { Span.id; name = "s"; op; parent; start; stop } in
  let bad =
    [
      ("child outside its parent", [ mk 0 (-1) 0 0. 1.; mk 1 0 0 0.5 1.5 ]);
      ("two roots in one op", [ mk 0 (-1) 0 0. 1.; mk 1 (-1) 0 2. 3. ]);
      ("child in another op", [ mk 0 (-1) 0 0. 1.; mk 1 (-1) 1 0. 1.; mk 2 0 1 0.2 0.4 ]);
      ("unclosed span", [ mk 0 (-1) 0 0. nan ]);
      ("missing parent", [ mk 0 (-1) 0 0. 1.; mk 1 7 0 0.2 0.4 ]);
    ]
  in
  List.iter (fun (what, spans) -> expect (Span.check spans <> Ok ()) "not caught: %s" what) bad

let exact (r : Harness.result) =
  List.map
    (fun name -> (name, try List.assoc name r.Harness.metrics with Not_found -> 0.))
    Harness.exact_counters

let workload_repeats ~workloads ~out_dir =
  List.iter
    (fun (name, run) ->
      let ctx = { Harness.seed = 3; seconds = 1.; trace = true; width = 2; out_dir } in
      let a = run ctx and b = run ctx in
      List.iter
        (fun (r : Harness.result) ->
          expect r.Harness.correct "%s: output checks failed: %s" name
            (try List.assoc "violations" r.Harness.header with Not_found -> "");
          expect (r.Harness.failed = 0) "%s: %d failed ops" name r.Harness.failed)
        [ a; b ];
      List.iter2
        (fun (k, x) (_, y) -> expect (x = y) "%s: %s differs across runs (%g vs %g)" name k x y)
        (exact a) (exact b);
      Printf.printf "%s: %s\n%!" name
        (String.concat ", "
           (List.filter_map
              (fun (k, v) -> if v <> 0. then Some (Printf.sprintf "%s=%g" k v) else None)
              (exact a))))
    workloads

let run ~workloads ~out_dir =
  Harness.mkdir_p out_dir;
  span_properties ();
  workload_repeats ~workloads ~out_dir;
  if !failures > 0 then begin
    Printf.printf "selftest: %d failures\n" !failures;
    exit 1
  end
  else print_endline "selftest: ok"

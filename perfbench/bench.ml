(* The parqo benchmark: one workload per invocation.

     bench.exe --workload compile|serve|sched|sql --seed N --seconds S
               --trace 0|1 [--out-dir DIR]
     bench.exe --selftest

   Untraced runs (--trace 0) report the end-to-end metrics; traced runs
   (--trace 1) the per-layer ones and write a Chrome trace.  A header
   line precedes the result; the last line of stdout is the result
   object.  The exit code is 1 when any output check failed. *)

let workloads =
  [
    ("compile", W_compile.run);
    ("serve", W_serve.run);
    ("sched", W_sched.run);
    ("sql", W_sql.run);
  ]

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* a JSON number with all its digits; JSON has no NaN or infinity, so a
   non-finite value is written as null (and fails the run, see
   [run_one]) *)
let json_float v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let nproc () = Domain.recommended_domain_count ()

(* a metric the workload does not report belongs to a layer it does not
   use and reads 0 *)
let metric (r : Harness.result) name =
  try List.assoc name r.Harness.metrics with Not_found -> 0.

let result_json (r : Harness.result) ~table =
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = metric r name in
        (name, json_object [ ("value", json_float v); ("unit", json_string unit) ]))
      table
  in
  json_object
    [
      ("correct", string_of_bool r.Harness.correct);
      ("attempted", string_of_int r.Harness.attempted);
      ("failed", string_of_int r.Harness.failed);
      ("metrics", json_object metrics);
    ]

let run_one ~workload ~seed ~seconds ~trace ~out_dir ~commit =
  let run =
    match List.assoc_opt workload workloads with
    | Some f -> f
    | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  Harness.mkdir_p out_dir;
  let width = min 2 (nproc ()) in
  let ctx = { Harness.seed; seconds; trace; width; out_dir } in
  let r = run ctx in
  let table = if trace then Harness.per_layer else Harness.end_to_end in
  (* a metric that is NaN or infinite means a computation broke (an
     empty sample, a zero count): that fails the run *)
  let r =
    match List.filter (fun (name, _) -> not (Float.is_finite (metric r name))) table with
    | [] -> r
    | bad ->
      {
        r with
        Harness.correct = false;
        header =
          r.Harness.header
          @ [ ("not_finite", String.concat "," (List.map fst bad)) ];
      }
  in
  let header =
    [
      ("workload", json_string workload);
      ("seed", string_of_int seed);
      ("seconds", json_float seconds);
      ("trace", string_of_bool trace);
      ("commit", json_string commit);
      ("nproc", string_of_int (nproc ()));
      ("ocaml", json_string Sys.ocaml_version);
      ("max_width", string_of_int width);
      ( "failed_share",
        json_float (float_of_int r.Harness.failed /. float_of_int (max 1 r.Harness.attempted)) );
    ]
    @ List.map (fun (k, v) -> (k, json_string v)) r.Harness.header
  in
  let line = result_json r ~table in
  print_endline ("# header " ^ json_object header);
  List.iter
    (fun (name, unit) ->
      let v = metric r name in
      Printf.printf "# %-36s %14.4f %s\n" name v unit)
    table;
  let oc =
    open_out
      (Filename.concat out_dir
         (Printf.sprintf "result-%s-seed%d-trace%d.json" workload seed
            (if trace then 1 else 0)))
  in
  output_string oc (json_object [ ("header", json_object header); ("result", line) ] ^ "\n");
  close_out oc;
  print_endline line;
  if not r.Harness.correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let out_dir = ref ".bench_out" and commit = ref "unknown" and selftest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME compile, serve, sched or sql");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--out-dir", Arg.Set_string out_dir, "DIR traces and result files");
      ("--commit", Arg.Set_string commit, "ID source revision for the header");
      ("--selftest", Arg.Set selftest, " check the benchmark itself");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !selftest then Selftest.run ~workloads ~out_dir:!out_dir
  else
    run_one ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      ~out_dir:!out_dir ~commit:!commit

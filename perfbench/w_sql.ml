(* sql — SQL text end to end through a session.

   Closed loop, one client.  One op is one [Session.sql] on the text of
   TPC-H q3 and q10 (on a scale-[scale] database), the portfolio,
   university and chain queries, in turn; the TPC-H queries come twice
   a round, the analyst's main work.  Data is sized so execution
   and verification are most of each op; search covers small queries,
   runs sequentially and uses no pool.  The traced run repeats the
   session's steps as separate public calls and checks they give the
   session's plan and rows. *)

open Harness
module Cm = Parqo.Costmodel
module Session = Parqo.Session

let scale = 3

(* The TPC-H database is fixed, as TPC-H's own generator fixes it for a
   scale factor; the run's seed draws the other databases.  With the
   TPC-H data drawn from the seed, q3's time moved by up to 40% from
   seed to seed (208 to 303 ms on a 2-vCPU VM), and q3 sets the tail:
   the tail's spread over ten seeds reached 0.16-0.19, against 0.08 for
   the median.  A second seeded TPC-H database in the mix does not help,
   since the slower of the two sets the tail. *)
let tpch_seed = 7

type entry = {
  label : string;
  session : Session.t;
  db : Parqo.Datagen.database;
  text : string;
}

type state = { mix : entry array; datagen_ms : float }

let setup ~seed () =
  let entry label db query =
    { label; session = Session.create ~db (); db; text = Parqo.Query.to_sql query }
  in
  let tpch, datagen_s = timed (fun () -> Parqo.Workloads.tpch ~scale ~seed:tpch_seed ()) in
  let db = tpch.Parqo.Workloads.db in
  let pf_db, pf_q = Parqo.Workloads.portfolio ~scale:3 ~seed () in
  let un_db, un_q = Parqo.Workloads.university ~seed () in
  let ch_db, ch_q = Parqo.Workloads.chain_db ~rows:2000 ~seed () in
  {
    mix =
      (let q3 = entry "tpch-q3" db tpch.Parqo.Workloads.q3
       and q10 = entry "tpch-q10" db tpch.Parqo.Workloads.q10 in
       [| q3; q10; entry "portfolio" pf_db pf_q; q3; q10; entry "university" un_db un_q;
          entry "chain" ch_db ch_q |]);
    datagen_ms = datagen_s *. 1000.;
  }

(* set-ups timed per run: about a second of set-up *)
let setup_repeats = 9

(* Session.sql's steps as separate public calls *)
let stepwise e =
  let catalog = Session.catalog e.session and machine = Session.machine e.session in
  match Span.with_ "parser.parse" (fun () -> Parqo.Sql.parse ~catalog e.text) with
  | Error msg -> Error msg
  | Ok query ->
    let env = Span.with_ "env.create" (fun () -> Parqo.Env.create ~machine ~catalog ~query ()) in
    let config = Parqo.Space.parallel_config machine in
    let o =
      Span.with_ "optimizer.minimize_response_time" (fun () ->
          O.minimize_response_time ~config ~bound:(Session.bound e.session) env)
    in
    (match o.O.best with
    | None -> Error "no plan"
    | Some plan ->
      let batch =
        Span.with_ "parallel_exec.run_query" (fun () ->
            Parqo.Parallel_exec.run_query e.db query plan.Cm.optree)
      in
      let seq =
        Span.with_ "executor.run_query" (fun () -> Parqo.Executor.run_query e.db query plan.Cm.tree)
      in
      let verified = Span.with_ "batch.equal_bags" (fun () -> Parqo.Batch.equal_bags batch seq) in
      Ok (query, env, o, plan, batch, verified))

let run ctx =
  let st, setup_s, setup_raw = setup_median ~repeats:setup_repeats (setup ~seed:ctx.seed) in
  let n = Array.length st.mix in
  let c = new_checks () in
  (* ground truth, once: the canonical-plan executor *)
  let reference, reference_s =
    let known = Hashtbl.create 8 in
    timed (fun () ->
        Array.map
          (fun e ->
            match Hashtbl.find_opt known e.label with
            | Some r -> r
            | None ->
              let r =
                match Parqo.Sql.parse ~catalog:(Session.catalog e.session) e.text with
                | Ok q -> Some (Parqo.Executor.reference e.db q)
                | Error msg ->
                  violation c "%s: %s" e.label msg;
                  None
              in
              Hashtbl.add known e.label r;
              r)
          st.mix)
  in
  let answers = Array.make n None in
  let check_answer i (a : Session.answer) =
    let e = st.mix.(i mod n) in
    check c a.Session.verified "%s: parallel execution not verified" e.label;
    (match reference.(i mod n) with
    | Some r -> check c (Parqo.Batch.equal_bags a.Session.batch r) "%s: rows differ from the reference" e.label
    | None -> ());
    if answers.(i mod n) = None then answers.(i mod n) <- Some a
  in
  let one_op i =
    let e = st.mix.(i mod n) in
    counted c (fun () ->
        Span.op i (fun () ->
            let r, dt = cpu_timed (fun () -> Span.with_ "session.sql" (fun () -> Session.sql e.session e.text)) in
            (match r with Ok a -> check_answer i a | Error msg -> violation c "%s: %s" e.label msg);
            dt))
  in
  (* the traced op: Session.sql's steps, checked against its answer *)
  let pass = Array.make n None and makespans = Array.make n nan in
  let traced_op i =
    let e = st.mix.(i mod n) in
    counted c (fun () ->
        Span.op i (fun () ->
            let r, dt = cpu_timed (fun () -> stepwise e) in
            (match r with
            | Error msg -> violation c "%s: %s" e.label msg
            | Ok (_, env, o, plan, batch, verified) ->
              check c verified "%s: stepwise execution not verified" e.label;
              (match answers.(i mod n) with
              | Some a ->
                check c
                  (Parqo.Join_tree.key a.Session.plan.Cm.tree = Parqo.Join_tree.key plan.Cm.tree
                  && bits a.Session.plan.Cm.response_time = bits plan.Cm.response_time)
                  "%s: stepwise plan differs from Session.sql" e.label;
                check c (Parqo.Batch.equal_bags a.Session.batch batch)
                  "%s: stepwise rows differ from Session.sql" e.label
              | None -> ());
              if i < n then begin
                let search = Option.get (Span.last "optimizer.minimize_response_time") in
                pass.(i) <- Some (o, Span.duration search);
                makespans.(i) <-
                  (Parqo.Simulator.run (Parqo.Task_graph.of_optree env plan.Cm.optree))
                    .Parqo.Simulator.makespan
              end);
            dt))
  in
  let labels = Array.map (fun e -> e.label) st.mix in
  let header =
    [
      ("pool_width", "0");
      ("setup_repeats", string_of_int setup_repeats);
      ("tpch_scale", string_of_int scale);
      ("reference_s", Printf.sprintf "%.3f" reference_s);
      ("mix", String.concat "," (Array.to_list labels));
    ]
  in
  if not ctx.trace then begin
    let l = closed_loop ~seconds:ctx.seconds ~min_ops:n one_op in
    let metrics, h = closed_metrics ~entries:n ~setup:(setup_s, setup_raw) l in
    result c ~attempted:(Array.length l.times) ~metrics
      ~header:(header @ h @ [ ("p50_ms_by_query", per_entry_p50 labels (normalized l)) ])
  end
  else begin
    let untraced, l, spans, path = traced_loops ctx c ~workload:"sql" ~min_ops:n ~traced_op one_op in
    let metrics =
      ("plan.makespan_geomean", geomean makespans)
      :: podp_metrics (List.map Option.get (Array.to_list pass))
      @ [
          ("parser.parse_us", span_mean spans "parser.parse" ~scale:1e6);
          ("env.create_us", span_mean spans "env.create" ~scale:1e6);
          ("parallel_exec.run_ms", span_mean spans "parallel_exec.run_query" ~scale:1e3);
          ("executor.run_ms", span_mean spans "executor.run_query" ~scale:1e3);
          ("batch.equal_bags_ms", span_mean spans "batch.equal_bags" ~scale:1e3);
          ("datagen.setup_ms", st.datagen_ms);
          ("trace.overhead", overhead ~untraced:(normalized untraced) ~traced:(normalized l));
          ("trace.spans_per_pass", float_of_int (spans_in_first spans n));
        ]
      @ gc_metrics l
    in
    result c
      ~attempted:(Array.length untraced.times + Array.length l.times)
      ~metrics
      ~header:(header @ [ ("samples", string_of_int (Array.length l.times)); ("trace_file", path) ])
  end

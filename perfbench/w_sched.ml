(* sched — the simulator's event loops on a co-scheduled workload.

   Closed loop, one client.  One op is one [Scheduler.run] of a Poisson
   stream of [n_jobs] jobs ([load] arrivals per mean solo makespan) on a
   4-node machine with a brownout; ops cycle over [n_streams] streams
   and, per stream, the fair, priority and srw policies.  Each run is
   followed by a batch of fault-injected
   [Simulator.run]s of the distinct plans under retry, stage and sync
   recovery (each plan lowered afresh).  The jobs are planned in set-up
   from the serving pool under an expansion budget, so search runs only
   there.  As in [serve], the pool is the fixed query library and the
   seed draws the job stream (queries, arrivals, priorities) and the
   faults. *)

open Harness
module Sched = Parqo.Scheduler
module Sim = Parqo.Simulator
module TG = Parqo.Task_graph
module Cm = Parqo.Costmodel

let n_jobs = 120

(* arrivals per mean solo makespan *)
let load = 0.5

(* independent job streams per run; an op schedules one of them, so a
   run's median spans [n_streams] draws of the stream *)
let n_streams = 4
let budget = Parqo.Budget.expansions 1_500

let recoveries =
  [|
    Parqo.Recovery.Retry_task { backoff = 1.; backoff_cap = 8. };
    Parqo.Recovery.Restart_stage;
    Parqo.Recovery.Restart_from_sync;
  |]

type plan = { env : Parqo.Env.t; optree : Parqo.Op.node; graph : TG.t }

type stream = { jobs : Sched.job array; events : Sched.machine_event list }

type state = {
  plans : plan array;  (** one per distinct query of the pool *)
  streams : stream array;
  faults : Parqo.Fault.config;
}

let setup ~seed () =
  let machine = Parqo.Machine.shared_nothing ~nodes:4 () in
  let catalog, pool = Parqo.Workloads.serving_pool ~seed:W_serve.library_seed () in
  let config = Parqo.Space.parallel_config machine in
  let by_fp = Hashtbl.create 32 in
  let plans = ref [] in
  let plan_of q =
    let fp = Parqo.Query.fingerprint q in
    match Hashtbl.find_opt by_fp fp with
    | Some i -> i
    | None ->
      let env = Parqo.Env.create ~machine ~catalog ~query:q () in
      let best =
        match (Parqo.Optimizer.minimize_response_time ~config ~budget env).Parqo.Optimizer.best with
        | Some b -> b
        | None -> failwith "sched: the optimizer returned no plan"
      in
      let i = List.length !plans in
      plans := { env; optree = best.Cm.optree; graph = TG.of_optree env best.Cm.optree } :: !plans;
      Hashtbl.add by_fp fp i;
      i
  in
  let rng = Parqo.Rng.create seed in
  let stream () =
    let picks = Array.init n_jobs (fun _ -> plan_of (Parqo.Rng.pick rng pool)) in
    let library = Array.of_list (List.rev !plans) in
    let graph i = library.(i).graph in
    let mean_solo = mean (Array.map (fun i -> (Sim.run (graph i)).Sim.makespan) picks) in
    let arrivals =
      Parqo.Workloads.arrivals rng ~process:(Parqo.Workloads.Poisson (load /. mean_solo)) ~n:n_jobs
    in
    let jobs =
      Array.mapi
        (fun j i ->
          Sched.job ~job_id:j ~arrival:arrivals.(j) ~priority:(Parqo.Rng.int rng 3) (graph i))
        picks
    in
    (* a brownout: one disk at half speed, then a CPU at a quarter, over
       the middle of the workload *)
    let horizon = arrivals.(n_jobs - 1) in
    let events =
      [
        { Sched.ev_at = 0.25 *. horizon; ev_resource = 0; ev_speed = 0.5 };
        { Sched.ev_at = 0.4 *. horizon; ev_resource = 1; ev_speed = 0.25 };
        { Sched.ev_at = 0.6 *. horizon; ev_resource = 0; ev_speed = 1. };
        { Sched.ev_at = 0.7 *. horizon; ev_resource = 1; ev_speed = 1. };
      ]
    in
    { jobs; events }
  in
  let streams = Array.init n_streams (fun _ -> stream ()) in
  {
    plans = Array.of_list (List.rev !plans);
    streams;
    faults = Parqo.Fault.default ~seed ~straggler:true ~fault_rate:0.1 ();
  }

(* utilization, busy conservation and completion of every job *)
let check_schedule c (jobs : Sched.job array) (o : Sched.outcome) =
  let u = Sched.utilization o in
  check c (u <= 1. +. 1e-9) "utilization %.6f > 1" u;
  let offered = Array.make (Array.length o.Sched.busy) 0. in
  Array.iter
    (fun (j : Sched.job) ->
      Array.iter
        (fun (s : TG.stage) ->
          List.iter
            (fun (t : TG.task) -> Array.iteri (fun r d -> offered.(r) <- offered.(r) +. d) t.TG.demands)
            s.TG.tasks)
        j.Sched.graph.TG.stages)
    jobs;
  Array.iteri
    (fun r b ->
      check c (Float.abs (b -. offered.(r)) <= 1e-6 *. Float.max 1. offered.(r))
        "busy not conserved on r%d (%.6f vs %.6f)" r b offered.(r))
    o.Sched.busy;
  Array.iter
    (fun (j : Sched.job_outcome) ->
      check c
        (j.Sched.disposition = Sched.Completed && Float.is_finite j.Sched.finished)
        "job %d did not finish" j.Sched.job_id)
    o.Sched.jobs

(* once: a single-job schedule is Simulator.run, bit for bit *)
let check_solo c (st : state) =
  let g = st.plans.(0).graph in
  let solo = Sim.run g in
  List.iter
    (fun policy ->
      let o = Sched.run ~policy [| Sched.job ~job_id:0 g |] in
      check c
        (bits o.Sched.makespan = bits solo.Sim.makespan
        && Array.for_all2 (fun a b -> bits a = bits b) o.Sched.busy solo.Sim.busy)
        "single-job schedule differs from Simulator.run under %s" (Sched.policy_to_string policy))
    Sched.all_policies

let policies = Array.of_list Sched.all_policies

(* set-ups timed per run: about three seconds of set-up *)
let setup_repeats = 3

(* one pass: every stream under every policy *)
let pass = n_streams * Array.length policies

let run ctx =
  let st, setup_s, setup_raw = setup_median ~repeats:setup_repeats (setup ~seed:ctx.seed) in
  let c = new_checks () in
  check_solo c st;
  (* trace events of the current loop's first pass *)
  let sched_events = ref 0 and sim_events = ref 0 in
  let stream_of i = st.streams.(i mod n_streams) in
  let policy_of i = policies.(i / n_streams mod Array.length policies) in
  let one_op i =
    if i = 0 then begin
      sched_events := 0;
      sim_events := 0
    end;
    counted c (fun () ->
        Span.op i (fun () ->
            let t0 = cpu_now () in
            let o =
              Span.with_ "scheduler.run" (fun () ->
                  Sched.run ~policy:(policy_of i) ~events:(stream_of i).events (stream_of i).jobs)
            in
            let events = ref 0 in
            Array.iter
              (fun p ->
                let g = Span.with_ "task_graph.lower" (fun () -> TG.of_optree p.env p.optree) in
                Array.iter
                  (fun recovery ->
                    let so = Span.with_ "simulator.run" (fun () -> Sim.run ~faults:st.faults ~recovery g) in
                    events := !events + List.length so.Sim.trace)
                  recoveries)
              st.plans;
            let dt = cpu_now () -. t0 in
            Span.with_ "check" (fun () -> check_schedule c (stream_of i).jobs o);
            if i < pass then begin
              sched_events := !sched_events + List.length o.Sched.trace;
              sim_events := !sim_events + !events
            end;
            dt))
  in
  let header =
    [
      ("pool_width", "0");
      ("setup_repeats", string_of_int setup_repeats);
      ("jobs", string_of_int n_jobs);
      ("streams", string_of_int n_streams);
      ("distinct_plans", string_of_int (Array.length st.plans));
    ]
  in
  if not ctx.trace then begin
    let l = closed_loop ~seconds:ctx.seconds ~min_ops:pass one_op in
    let metrics, h = closed_metrics ~entries:pass ~setup:(setup_s, setup_raw) l in
    result c ~attempted:(Array.length l.times) ~metrics ~header:(header @ h)
  end
  else begin
    let untraced, l, spans, path = traced_loops ctx c ~workload:"sched" ~min_ops:pass one_op in
    (* seconds spent in the spans called [name] during the first pass *)
    let first_pass name =
      sum (fun (s : Span.t) -> if s.Span.op < pass && s.Span.name = name then Span.duration s else 0.) spans
    in
    let metrics =
      [
        ("scheduler.run_ms", span_mean spans "scheduler.run" ~scale:1e3);
        ("scheduler.events_per_s", float_of_int !sched_events /. first_pass "scheduler.run");
        ("scheduler.events", float_of_int !sched_events);
        ("simulator.faulty_run_us", span_mean spans "simulator.run" ~scale:1e6);
        ("simulator.events_per_s", float_of_int !sim_events /. first_pass "simulator.run");
        ("task_graph.lower_us", span_mean spans "task_graph.lower" ~scale:1e6);
        ("trace.overhead", overhead ~untraced:(normalized untraced) ~traced:(normalized l));
        ("trace.spans_per_pass", float_of_int (spans_in_first spans pass));
      ]
      @ gc_metrics l
    in
    result c
      ~attempted:(Array.length untraced.times + Array.length l.times)
      ~metrics
      ~header:(header @ [ ("samples", string_of_int (Array.length l.times)); ("trace_file", path) ])
  end

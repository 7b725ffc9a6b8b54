(* The cases behind the pinned simulator and scheduler outputs
   ([Test_sim_pins], table in [Sim_pins_data]).  Each case is a seeded
   run rendered either as a digest (runs that must stay Int64-identical)
   or as a vector of floats (runs held to a relative tolerance).  The
   table was recorded from these same case functions; changing one
   invalidates its entries.  [render (all ())] prints a table in the data file's
   form, from any executable that links this file and [Helpers]. *)

module Sim = Parqo.Simulator
module Sched = Parqo.Scheduler
module TG = Parqo.Task_graph
module F = Parqo.Fault
module R = Parqo.Recovery
module A = Parqo.Adaptive
module Cm = Parqo.Costmodel
module Rng = Parqo.Rng

type pin = Digest of string | Values of float array

(* every field of a simulator outcome, floats as their IEEE bits *)
let digest (o : Sim.outcome) =
  let b = Buffer.create 4096 in
  let f x = Printf.bprintf b "%Lx;" (Int64.bits_of_float x) in
  let i x = Printf.bprintf b "%d;" x in
  let s x = Printf.bprintf b "%s;" x in
  let opt g = function None -> s "-" | Some x -> g x in
  f o.Sim.makespan;
  Array.iter f o.Sim.busy;
  f o.Sim.total_work;
  List.iter (fun (id, t) -> i id; f t) o.Sim.stage_start;
  s "|";
  List.iter (fun (id, t) -> i id; f t) o.Sim.stage_finish;
  List.iter (fun (e : Sim.event) -> f e.Sim.at; s e.Sim.what) o.Sim.trace;
  i o.Sim.n_faults;
  i o.Sim.n_retries;
  i o.Sim.n_replans;
  List.iter
    (fun (rp : Sim.replan_event) ->
      f rp.Sim.rp_at;
      s (Sim.trigger_to_string rp.Sim.rp_trigger);
      s rp.Sim.rp_plan;
      s rp.Sim.rp_info)
    o.Sim.replans;
  List.iter
    (fun (fe : Sim.fault_event) ->
      f fe.Sim.f_at;
      s (F.kind_name fe.Sim.f_kind);
      opt i fe.Sim.f_stage;
      opt s fe.Sim.f_task;
      opt i fe.Sim.f_resource;
      i fe.Sim.f_attempt)
    o.Sim.faults;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* makespan, busy, then stage start and finish times in stage-id order *)
let sim_values (o : Sim.outcome) =
  let by_id l = List.sort compare l |> List.map snd in
  Array.concat
    [
      [| o.Sim.makespan; o.Sim.total_work |];
      o.Sim.busy;
      Array.of_list (by_id o.Sim.stage_start);
      Array.of_list (by_id o.Sim.stage_finish);
    ]

(* makespan, busy, then per job (ascending id) its finish instant and
   whether admission shed it *)
let sched_values (o : Sched.outcome) =
  Array.concat
    [
      [| o.Sched.makespan; o.Sched.total_work |];
      o.Sched.busy;
      Array.concat
        (Array.to_list
           (Array.map
              (fun (j : Sched.job_outcome) ->
                [|
                  j.Sched.finished;
                  (match j.Sched.disposition with
                  | Sched.Completed -> 0.
                  | Sched.Rejected _ -> 1.);
                |])
              o.Sched.jobs));
    ]

let plan rng =
  let n = 3 + Rng.int rng 4 in
  let env = Helpers.random_env rng ~n in
  (env, Helpers.random_tree rng env)

(* fault-injected runs: seeded plans x fault configs x recovery *)
let fault_cases () =
  let rng = Rng.create 130_001 in
  List.concat
    (List.init 6 (fun k ->
         let env, tree = plan rng in
         (* fault windows scale with the cost model's estimate, not with a
            simulated makespan, so the configs do not depend on the code
            under test *)
         let h = (Cm.evaluate env tree).Cm.response_time in
         let nr = Parqo.Machine.n_resources env.Parqo.Env.machine in
         let grow g_at g_kind g_node g_speed =
           { F.g_at; g_kind; g_node; g_speed }
         in
         let configs =
           [
             ("fail", F.default ~seed:k ~fault_rate:0.3 ());
             ( "straggler",
               { F.none with F.seed = k; straggler_rate = 0.5; straggler_factor = 3. } );
             ( "outage",
               {
                 (F.default ~seed:k ~fault_rate:0.1 ()) with
                 F.outages =
                   F.random_outages rng ~n_resources:nr ~horizon:h ~rate:1.5
                     ~mean_duration:(0.1 *. h);
               } );
             ( "brownout",
               {
                 F.none with
                 F.seed = k;
                 outages =
                   F.random_rescales rng ~n_resources:nr ~horizon:h ~rate:1.5
                     ~mean_duration:(0.15 *. h) ~factor:0.3;
               } );
             (* same-instant boundaries: two grows, a brownout beside
                them, and a full loss whose expiry meets the next onset *)
             ( "grow",
               {
                 (F.default ~seed:k ~straggler:true ~fault_rate:0.15 ()) with
                 F.grows =
                   [
                     grow (0.3 *. h) Parqo.Resource.Cpu 0 2.;
                     grow (0.3 *. h) Parqo.Resource.Disk 1 1.;
                   ];
                 outages =
                   [
                     F.brownout ~resource:0 ~at:(0.3 *. h) ~duration:(0.2 *. h)
                       ~factor:0.5;
                     { F.resource = 1; at = 0.5 *. h; duration = 0.1 *. h; factor = 0. };
                     { F.resource = 2; at = (0.5 *. h) +. (0.1 *. h); duration = 0.1 *. h; factor = 0. };
                   ];
               } );
           ]
         in
         let runs =
           [
             ("retry", fun faults -> Sim.simulate_plan ~faults ~recovery:(R.retry_task ()) env tree);
             ("stage", fun faults -> Sim.simulate_plan ~faults ~recovery:R.Restart_stage env tree);
             ("sync", fun faults -> Sim.simulate_plan ~faults ~recovery:R.Restart_from_sync env tree);
             ("replan-sim", fun faults -> Sim.simulate_plan ~faults ~recovery:(R.replan ()) env tree);
             ( "replan",
               fun faults ->
                 (A.simulate ~faults ~recovery:(R.replan ~threshold:0.3 ~max_expansions:(Some 2_000) ()) env tree).A.outcome );
           ]
         in
         List.concat_map
           (fun (cname, faults) ->
             List.map
               (fun (rname, run) ->
                 (Printf.sprintf "fault %d %s %s" k cname rname, Digest (digest (run faults))))
               runs)
           configs))

(* fault-free single-query runs *)
let sim_cases () =
  let rng = Rng.create 130_002 in
  List.init 30 (fun k ->
      let env, tree = plan rng in
      (Printf.sprintf "sim %d" k, Values (sim_values (Sim.simulate_plan env tree))))

(* multi-job workloads x policies, with and without machine events *)
let sched_cases () =
  let rng = Rng.create 130_003 in
  List.concat
    (List.init 10 (fun k ->
         let nj = 2 + Rng.int rng 4 in
         let graphs =
           Array.init nj (fun _ ->
               let env, tree = plan rng in
               TG.of_optree env (Cm.evaluate env tree).Cm.optree)
         in
         let solo = Array.map (fun g -> (Sim.run g).Sim.makespan) graphs in
         let horizon = Array.fold_left ( +. ) 0. solo in
         let jobs =
           Array.mapi
             (fun i g ->
               let deadline =
                 if Rng.int rng 3 = 0 then Some ((0.5 +. Rng.float rng 3.) *. solo.(i))
                 else None
               in
               Sched.job ~arrival:(Rng.float rng (0.6 *. horizon))
                 ~priority:(Rng.int rng 3) ?deadline ~job_id:i g)
             graphs
         in
         let nr = graphs.(0).TG.n_resources in
         let steps =
           List.init
             (1 + Rng.int rng 5)
             (fun _ ->
               {
                 Sched.ev_at = Rng.float rng horizon;
                 ev_resource = Rng.int rng nr;
                 ev_speed = (if Rng.int rng 5 = 0 then 0. else 0.25 +. Rng.float rng 1.75);
               })
         in
         let restores =
           List.init nr (fun r -> { Sched.ev_at = 2. *. horizon; ev_resource = r; ev_speed = 1. })
         in
         List.concat_map
           (fun policy ->
             List.map
               (fun (ename, events) ->
                 ( Printf.sprintf "sched %d %s %s" k (Sched.policy_to_string policy) ename,
                   Values (sched_values (Sched.run ~policy ~events jobs)) ))
               [ ("plain", []); ("events", steps @ restores) ])
           Sched.all_policies))

let all () = fault_cases () @ sim_cases () @ sched_cases ()

(* the table's source form: one [(name, pin)] entry per line *)
let render cases =
  let b = Buffer.create 65536 in
  Buffer.add_string b "let table =\n  [\n";
  List.iter
    (fun (name, pin) ->
      match pin with
      | Digest d -> Printf.bprintf b "    (%S, Sim_pin_cases.Digest %S);\n" name d
      | Values v ->
        Printf.bprintf b "    (%S, Sim_pin_cases.Values [| %s |]);\n" name
          (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") v))))
    cases;
  Buffer.add_string b "  ]\n";
  Buffer.contents b

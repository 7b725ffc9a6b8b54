module Parqo_error = Parqo_util.Parqo_error
include Event_loop.Types

type outcome = {
  makespan : float;
  busy : float array;
  total_work : float;
  stage_start : (int * float) list;
  stage_finish : (int * float) list;
  trace : event list;
  n_faults : int;
  n_retries : int;
  n_replans : int;
  replans : replan_event list;
  faults : fault_event list;
}

(* the one-job schedule: the query arrives at 0 on an idle machine *)
let run ?faults ?(recovery = Recovery.default) ?replanner (g : Task_graph.t) =
  (match Task_graph.validate g with
  | Ok () -> ()
  | Error msg ->
    Parqo_error.fail ~subsystem:"simulator" ("invalid task graph: " ^ msg));
  let faults = Option.value faults ~default:Fault.none in
  (match Fault.validate faults with
  | Ok () -> ()
  | Error msg ->
    Parqo_error.fail ~subsystem:"simulator" ("invalid fault config: " ^ msg));
  let r =
    Event_loop.run ~subsystem:"simulator" ~named:false ~policy:Fair_share
      ~speeds:[||] ~faults ~recovery ~replanner
      [| Event_loop.job ~job_id:0 g |]
  in
  let j = r.Event_loop.jobs.(0) in
  {
    makespan = r.Event_loop.makespan;
    busy = r.Event_loop.busy;
    total_work = j.Event_loop.work;
    stage_start = j.Event_loop.stage_start;
    stage_finish = j.Event_loop.stage_finish;
    trace = r.Event_loop.trace;
    n_faults = List.length r.Event_loop.faults;
    n_retries = r.Event_loop.n_retries;
    n_replans = List.length r.Event_loop.replans;
    replans = r.Event_loop.replans;
    faults = r.Event_loop.faults;
  }

let simulate_plan ?faults ?recovery (env : Parqo_cost.Env.t) tree =
  let optree =
    Parqo_optree.Expand.expand ~config:env.Parqo_cost.Env.expand_config
      env.Parqo_cost.Env.estimator tree
  in
  run ?faults ?recovery (Task_graph.of_optree env optree)

let utilization o =
  if o.makespan <= 0. then 1.
  else o.total_work /. (o.makespan *. float_of_int (Array.length o.busy))

let timeline ?(width = 50) o =
  let span = Float.max 1e-9 o.makespan in
  let col t = int_of_float (float_of_int width *. t /. span) in
  let stage_faults id =
    List.length (List.filter (fun f -> f.f_stage = Some id) o.faults)
  in
  let rows =
    List.filter_map
      (fun (id, start) ->
        match List.assoc_opt id o.stage_finish with
        | None -> None
        | Some finish -> Some (id, start, finish))
      o.stage_start
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun (id, start, finish) ->
      let s = col start and f = max (col start + 1) (col finish) in
      let bar =
        String.concat ""
          [
            String.make s ' ';
            String.make (min (width - s) (f - s)) '=';
            String.make (max 0 (width - f)) ' ';
          ]
      in
      let annot =
        match stage_faults id with
        | 0 -> ""
        | n -> Printf.sprintf "  (%d fault%s)" n (if n = 1 then "" else "s")
      in
      Printf.bprintf buf "stage %-3d |%s| %.1f .. %.1f%s\n" id bar start finish
        annot)
    rows;
  List.iter
    (fun rp ->
      Printf.bprintf buf "replan at %.1f after %s -> %s\n" rp.rp_at
        (trigger_to_string rp.rp_trigger) rp.rp_plan)
    o.replans;
  Buffer.contents buf

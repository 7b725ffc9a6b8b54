module Parqo_error = Parqo_util.Parqo_error
module Statsu = Parqo_util.Statsu

include Event_loop.Workload

let policy_to_string = function
  | Fair_share -> "fair"
  | Strict_priority -> "priority"
  | Shortest_remaining_work -> "srw"

let policy_of_string s =
  match String.lowercase_ascii s with
  | "fair" | "fair-share" | "fair_share" | "ps" -> Ok Fair_share
  | "priority" | "strict-priority" | "strict_priority" -> Ok Strict_priority
  | "srw" | "srpt" | "shortest-remaining-work" | "shortest_remaining_work" ->
    Ok Shortest_remaining_work
  | _ ->
    Error
      (Printf.sprintf "unknown policy %S (valid: fair, priority, srw)" s)

let all_policies = [ Fair_share; Strict_priority; Shortest_remaining_work ]

type event = Event_loop.event = { at : float; what : string }

type outcome = {
  policy : policy;
  jobs : job_outcome array;
  makespan : float;
  busy : float array;
  total_work : float;
  trace : event list;
}

type summary = {
  n_jobs : int;
  n_rejected : int;
  makespan : float;
  utilization : float;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

let eps = 1e-9

let utilization (o : outcome) =
  if o.makespan <= 0. then 1.
  else o.total_work /. (o.makespan *. float_of_int (Array.length o.busy))

let summarize (o : outcome) =
  (* response-time statistics cover completed jobs only: a shed job never
     ran, so folding its zero response in would flatter the tail *)
  let rs =
    Array.to_list o.jobs
    |> List.filter_map (fun j ->
           match j.disposition with
           | Completed -> Some j.response
           | Rejected _ -> None)
  in
  let n_rejected =
    Array.fold_left
      (fun acc j ->
        match j.disposition with Rejected _ -> acc + 1 | Completed -> acc)
      0 o.jobs
  in
  let quantile q = match rs with [] -> 0. | l -> Statsu.quantile q l in
  {
    n_jobs = Array.length o.jobs;
    n_rejected;
    makespan = o.makespan;
    utilization = utilization o;
    mean =
      (match rs with
      | [] -> 0.
      | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l));
    p50 = quantile 0.5;
    p95 = quantile 0.95;
    p99 = quantile 0.99;
    max = List.fold_left Float.max 0. rs;
  }

let effective_speeds machine =
  let module M = Parqo_machine.Machine in
  Array.init (M.n_resources machine) (M.speed machine)

let expected_pressure ?horizon ?speeds ~n_resources (jobs : job array) =
  (match speeds with
  | Some s when Array.length s <> n_resources ->
    invalid_arg "Scheduler.expected_pressure: speeds length <> n_resources"
  | _ -> ());
  let totals = Array.make n_resources 0. in
  Array.iter
    (fun j ->
      Array.iter
        (fun (s : Task_graph.stage) ->
          List.iter
            (fun (t : Task_graph.task) ->
              Array.iteri
                (fun r d ->
                  if r < n_resources then totals.(r) <- totals.(r) +. d)
                t.Task_graph.demands)
            s.Task_graph.tasks)
        j.graph.Task_graph.stages)
    jobs;
  if Array.length jobs = 0 then totals
  else begin
    let h =
      match horizon with
      | Some h ->
        if h <= 0. then
          invalid_arg "Scheduler.expected_pressure: horizon <= 0";
        h
      | None ->
        (* arrival span plus the mean job's solo drain time: the window
           over which the offered work actually lands on the machine *)
        let lo = ref infinity and hi = ref neg_infinity in
        Array.iter
          (fun (j : job) ->
            lo := Float.min !lo j.arrival;
            hi := Float.max !hi j.arrival)
          jobs;
        let total = Array.fold_left ( +. ) 0. totals in
        let mean_work = total /. float_of_int (Array.length jobs) in
        Float.max eps (!hi -. !lo +. mean_work)
    in
    (* pressure is offered load against {e effective} capacity: a
       half-speed resource saturates at half the work, so its pressure
       doubles.  The [None] branch is the pre-speed expression verbatim
       (all-nominal callers stay bit-identical); a zero-speed resource
       with offered work reads as infinitely loaded. *)
    match speeds with
    | None -> Array.map (fun w -> w /. h) totals
    | Some s ->
      Array.mapi
        (fun r w ->
          if s.(r) > 0. then w /. (h *. s.(r))
          else if w > eps then infinity
          else 0.)
        totals
  end

let validate_jobs (jobs : job array) =
  let nj = Array.length jobs in
  if nj = 0 then
    Parqo_error.fail ~subsystem:"scheduler" "empty job set";
  let nr = jobs.(0).graph.Task_graph.n_resources in
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun (j : job) ->
      if Hashtbl.mem seen j.job_id then
        Parqo_error.failf ~subsystem:"scheduler" "duplicate job id %d" j.job_id;
      Hashtbl.add seen j.job_id ();
      if j.graph.Task_graph.n_resources <> nr then
        Parqo_error.failf ~subsystem:"scheduler"
          "job %d resource-dimension mismatch (%d vs %d)" j.job_id
          j.graph.Task_graph.n_resources nr;
      if (not (Float.is_finite j.arrival)) || j.arrival < 0. then
        Parqo_error.failf ~subsystem:"scheduler"
          "job %d has invalid arrival" j.job_id;
      (match j.deadline with
      | Some d when (not (Float.is_finite d)) || d <= 0. ->
        Parqo_error.failf ~subsystem:"scheduler"
          "job %d has invalid deadline" j.job_id
      | _ -> ());
      match Task_graph.validate j.graph with
      | Ok () -> ()
      | Error msg ->
        Parqo_error.failf ~subsystem:"scheduler" "invalid task graph (job %d): %s"
          j.job_id msg)
    jobs;
  nr

let validate_events ~nr (events : machine_event list) =
  List.iter
    (fun e ->
      if (not (Float.is_finite e.ev_at)) || e.ev_at < 0. then
        Parqo_error.failf ~subsystem:"scheduler"
          "machine event has invalid instant %g" e.ev_at;
      if e.ev_resource < 0 || e.ev_resource >= nr then
        Parqo_error.failf ~subsystem:"scheduler"
          "machine event resource %d out of range (workload has %d)"
          e.ev_resource nr;
      if (not (Float.is_finite e.ev_speed)) || e.ev_speed < 0. then
        Parqo_error.failf ~subsystem:"scheduler"
          "machine event has invalid speed %g" e.ev_speed)
    events;
  (* stable sort: same-instant events on one resource apply in list
     order, so the last one given wins.  An event that leaves its
     resource at the current speed is dropped: it would still split a
     drain segment at its instant, and an all-nominal event list must
     reduce to no events for the bit-identity contract to hold. *)
  let cur = Array.make nr 1. in
  List.stable_sort (fun a b -> Float.compare a.ev_at b.ev_at) events
  |> List.filter (fun e ->
         e.ev_speed <> cur.(e.ev_resource)
         && (cur.(e.ev_resource) <- e.ev_speed;
             true))
  |> Array.of_list

(* the jobs share the single-query simulator's event loop; trace lines
   carry each job's label, or [q<id>] *)
let run ?(policy = Fair_share) ?(events = []) (jobs : job array) =
  let nr = validate_jobs jobs in
  let speeds = validate_events ~nr events in
  let r =
    Event_loop.run ~subsystem:"scheduler" ~named:true ~policy ~speeds
      ~faults:Fault.none ~recovery:Recovery.default ~replanner:None jobs
  in
  let jobs = r.Event_loop.jobs in
  Array.sort (fun (a : job_outcome) b -> compare a.job_id b.job_id) jobs;
  {
    policy;
    jobs;
    makespan = r.Event_loop.makespan;
    busy = r.Event_loop.busy;
    total_work =
      (* shed jobs never ran: their offered work is not part of the
         delivered total, keeping busy conservation exact *)
      Array.fold_left
        (fun acc (j : job_outcome) ->
          match j.disposition with
          | Rejected _ -> acc
          | Completed -> acc +. j.work)
        0. jobs;
    trace = r.Event_loop.trace;
  }

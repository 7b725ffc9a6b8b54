(* The one processor-sharing event loop behind [Simulator.run] (one job)
   and [Scheduler.run] (many).

   State: jobs x stages x tasks.  A job's stages start once it has
   arrived (and admission kept it) and their dependencies are done; a
   stage finishes when all its tasks have drained.

   Capacity: per resource, piecewise-constant, compiled once from one
   sorted event source — grows, outage onsets and expiries, machine
   speeds and job arrivals.  A resource delivers its level (1, 0 before
   a grow comes online, or the last speed set) times the factors of the
   outages covering it, multiplied in outage-list order.

   Sharing: per resource and instant the policy picks the eligible jobs
   among those demanding it.  An eligible task drains at [cap / factor],
   [factor = count * n]: [count] tasks of its job demand the resource
   and [n] jobs are eligible.  With one job [n = 1], and multiplying by
   [1.0] is exact, so a one-job schedule is the single-query simulator.

   Faults: each task attempt draws its fate from [Fault.draw]; recovery
   retries the task after a backoff or restarts its stage, full-loss
   outages destroy checkpoints under the sync policies, and a
   [replanner] may splice a residual graph into a job.

   Tolerance: a demand is drained at [eps_w], one part in 1e12 of its
   job's current graph work, floored at 1e-9 — a fixed 1e-9 can never be
   met once one ulp of the work exceeds it.  Stage lists are ordered by
   (time, stage id). *)

module Parqo_error = Parqo_util.Parqo_error

module Types = struct
  type event = { at : float; what : string }

  type fault_event = {
    f_at : float;
    f_kind : Fault.kind;
    f_stage : int option;
    f_task : string option;
    f_resource : int option;
    f_attempt : int;
  }

  type replan_trigger =
    | Checkpoint_loss of { resource : int }
    | Work_inflation of { ratio : float }
    | Slowdown of { resource : int; factor : float }
    | Scale_out of { n_new : int }

  type replan_event = {
    rp_at : float;
    rp_trigger : replan_trigger;
    rp_plan : string;
    rp_info : string;
  }

  type snapshot = {
    s_at : float;
    s_trigger : replan_trigger;
    s_graph : Task_graph.t;
    s_survivors : int list;
  }

  type replan = { new_graph : Task_graph.t; plan_key : string; info : string }
  type replanner = snapshot -> replan option

  let trigger_to_string = function
    | Checkpoint_loss { resource } ->
      Printf.sprintf "checkpoint loss (resource %d)" resource
    | Work_inflation { ratio } -> Printf.sprintf "work inflation x%.2f" ratio
    | Slowdown { resource; factor } ->
      Printf.sprintf "slowdown (resource %d at x%.2f)" resource factor
    | Scale_out { n_new } ->
      Printf.sprintf "scale-out (%d new resource%s)" n_new
        (if n_new = 1 then "" else "s")
end

include Types

(* the workload scheduler's vocabulary *)
module Workload = struct
  type policy = Fair_share | Strict_priority | Shortest_remaining_work

  type job = {
    job_id : int;
    label : string;
    arrival : float;
    priority : int;
    deadline : float option;
    graph : Task_graph.t;
  }

  let job ?(label = "") ?(priority = 0) ?(arrival = 0.) ?deadline ~job_id
      graph =
    { job_id; label; arrival; priority; deadline; graph }

  type machine_event = { ev_at : float; ev_resource : int; ev_speed : float }

  type disposition = Completed | Rejected of string

  type job_outcome = {
    job_id : int;
    label : string;
    arrival : float;
    started : float;
    finished : float;
    response : float;
    work : float;
        (** its graph's work; after splices, the survivors' plus theirs *)
    disposition : disposition;
    stage_start : (int * float) list;  (** by (time, stage id) *)
    stage_finish : (int * float) list;
  }
end

include Workload

type result = {
  makespan : float;
  busy : float array;
  trace : event list;
  faults : fault_event list;
  n_retries : int;
  replans : replan_event list;
  jobs : job_outcome array;  (** in the caller's order *)
}

let eps = 1e-9

(* at most this many splices per run, even if the replanner keeps
   volunteering — a backstop against pathological callbacks *)
let max_replans_hard = 32

type status = Pending | Running | Done

(* one task of a job's current graph, and its current attempt *)
type task = {
  demands : float array;  (** the graph's demand vector *)
  name : string;
  tid : int;
  mutable rem : float array;
      (** demand the attempt has left; [demands] itself until the first
          attempt copies it *)
  mutable attempt : int;
  mutable total : float;  (** the attempt's whole demand *)
  mutable fail_at : float;
      (** work done at which the attempt fail-stops; [infinity]: never *)
  mutable wake : float;  (** a retry's backoff holds the task until then *)
  mutable active : bool;  (** drains in the current step *)
}

(* one job's state on its current graph; a re-plan splice replaces it *)
type segment = {
  g : Task_graph.t;
  tasks : task array array;  (** per stage *)
  status : status array;
  start_t : float array;  (** [nan] until first activation *)
  finish_t : float array;
  eps_w : float;
  seg_base : float;
  mutable rework : float;
      (** straggler inflation plus work lost to fail-stops; feeds the
          [Replan] inflation trigger only *)
}

let segment (g : Task_graph.t) =
  let task (t : Task_graph.task) =
    let d = t.Task_graph.demands in
    {
      demands = d;
      name = t.Task_graph.label;
      tid = t.Task_graph.task_id;
      rem = d;
      attempt = 0;
      total = 0.;
      fail_at = infinity;
      wake = 0.;
      active = false;
    }
  in
  let n = Array.length g.Task_graph.stages in
  let total = Task_graph.total_work g in
  {
    g;
    tasks =
      Array.map
        (fun (s : Task_graph.stage) ->
          Array.of_list (List.map task s.Task_graph.tasks))
        g.Task_graph.stages;
    status = Array.make n Pending;
    start_t = Array.make n nan;
    finish_t = Array.make n nan;
    eps_w = Float.max eps (1e-12 *. total);
    seg_base = total;
    rework = 0.;
  }

type jstate = {
  pos : int;  (** index in the caller's job array *)
  spec : job;
  prefix : string;
      (** trace prefix: the label or [q<id>] when [named]; [""] also mutes
          the arrive and done lines *)
  mutable seg : segment;
  mutable work : float;  (** survivors' work plus the spliced graphs' *)
  mutable arrived : bool;
  mutable fresh : bool;  (** just spliced, its stages not yet started *)
  mutable finished : float;  (** [nan] until done or shed *)
  mutable rejected : string option;
  counts : int array;  (** active tasks demanding each resource *)
  factor : float array;  (** per-task slowdown per resource; 0: preempted *)
}

type source =
  | Grow of int
  | Onset of int
  | Expiry of int
  | Speed of int
  | Arrival of int

let total_of = Array.fold_left ( +. ) 0.

(* every attempt's draw under a config that can neither fail nor slow a
   task — what [Fault.draw] returns there, without seeding a generator *)
let calm = { Fault.fails = false; fail_point = 0.; slowdown = 1. }

let by_time arr =
  List.init (Array.length arr) (fun id -> (id, arr.(id)))
  |> List.filter (fun (_, t) -> not (Float.is_nan t))
  |> List.sort (fun (i, t) (i', t') -> compare (t, i) (t', i'))

let run ~subsystem ~named ~policy ~(speeds : machine_event array)
    ~faults:(fc : Fault.config) ~recovery ~(replanner : replanner option)
    (jobs_in : job array) =
  let nr = jobs_in.(0).graph.Task_graph.n_resources in
  let is_replan, replan_threshold =
    match recovery with
    | Recovery.Replan { threshold; _ } -> (true, threshold)
    | _ -> (false, infinity)
  in
  (* scale-out events, in onset order: each appends one dimension beyond
     [nr], dark before its onset.  Its static speed is already folded
     into the demands of any graph lowered on the grown machine. *)
  let grows =
    Array.of_list
      (List.stable_sort
         (fun (a : Fault.grow) b -> Float.compare a.Fault.g_at b.Fault.g_at)
         fc.Fault.grows)
  in
  let nr_total = nr + Array.length grows in
  let outages = Array.of_list fc.Fault.outages in
  let nj = Array.length jobs_in in
  let jobs =
    Array.mapi
      (fun pos (spec : job) ->
        {
          pos;
          spec;
          prefix =
            (if not named then ""
             else if spec.label = "" then Printf.sprintf "q%d " spec.job_id
             else spec.label ^ " ");
          seg = segment spec.graph;
          work = Task_graph.total_work spec.graph;
          arrived = false;
          fresh = false;
          finished = nan;
          rejected = None;
          counts = Array.make nr_total 0;
          factor = Array.make nr_total 0.;
        })
      jobs_in
  in
  (* the event source, sorted by (instant, kind, position): same-instant
     grows come first, then outages in list order (onset before expiry),
     machine speeds, and arrivals by job id *)
  let key = function
    | Grow i -> (grows.(i).Fault.g_at, 0, i)
    | Onset i -> (outages.(i).Fault.at, 1, 2 * i)
    | Expiry i ->
      (outages.(i).Fault.at +. outages.(i).Fault.duration, 1, (2 * i) + 1)
    | Speed i -> (speeds.(i).ev_at, 2, i)
    | Arrival p -> (jobs_in.(p).arrival, 3, jobs_in.(p).job_id)
  in
  let ev_kind =
    Array.concat
      [
        Array.init (Array.length grows) (fun i -> Grow i);
        Array.init
          (2 * Array.length outages)
          (fun k -> if k mod 2 = 0 then Onset (k / 2) else Expiry (k / 2));
        Array.init (Array.length speeds) (fun i -> Speed i);
        Array.init nj (fun p -> Arrival p);
      ]
  in
  Array.sort (fun a b -> compare (key a) (key b)) ev_kind;
  let n_ev = Array.length ev_kind in
  let ev_at = Array.map (fun k -> match key k with t, _, _ -> t) ev_kind in
  (* the jobs in (arrival, id) order, as the source lists them *)
  let order =
    Array.of_list
      (List.filter_map
         (function Arrival p -> Some p | _ -> None)
         (Array.to_list ev_kind))
  in
  (* compiled capacity: the resource each event sets (-1: none) and its
     value from then on — the resource's level times the product of the
     factors of the outages covering it, in list order *)
  let ev_res = Array.make n_ev (-1) and ev_cap = Array.make n_ev 0. in
  let cap = Array.init nr_total (fun r -> if r < nr then 1. else 0.) in
  let level = Array.copy cap in
  let covering = Array.make (Array.length outages) false in
  Array.iteri
    (fun k kind ->
      let r =
        match kind with
        | Grow i -> level.(nr + i) <- 1.; nr + i
        | Onset i -> covering.(i) <- true; outages.(i).Fault.resource
        | Expiry i -> covering.(i) <- false; outages.(i).Fault.resource
        | Speed i ->
          level.(speeds.(i).ev_resource) <- speeds.(i).ev_speed;
          speeds.(i).ev_resource
        | Arrival _ -> -1
      in
      if r >= 0 && r < nr_total then begin
        let f = ref 1. in
        Array.iteri
          (fun i (o : Fault.outage) ->
            if covering.(i) && o.Fault.resource = r then
              f := !f *. o.Fault.factor)
          outages;
        ev_res.(k) <- r;
        ev_cap.(k) <- level.(r) *. Float.max 0. !f
      end)
    ev_kind;
  let cursor = ref 0 in
  let live_dims = ref nr in
  let busy = Array.make nr_total 0. in
  let contended = Array.make nr_total false in
  let srw = Array.make nj 0. in
  let time = ref 0. in
  let trace = ref [] in
  let faults_log = ref [] in
  let n_retries = ref 0 in
  let replans_log = ref [] in
  let n_replans = ref 0 in
  let open_jobs = ref nj in
  let guard = ref 0 in
  let max_events =
    let n = Array.fold_left (fun a j -> a + Array.length j.seg.status) 0 jobs in
    (1000 * (1 + n) * (1 + nr) * (2 + fc.Fault.max_fail_attempts)) + (10 * n_ev)
  in
  let emit what = trace := { at = !time; what } :: !trace in
  let log_fault f_kind ?stage ?task ?resource f_attempt =
    faults_log :=
      {
        f_at = !time;
        f_kind;
        f_stage = stage;
        f_task = task;
        f_resource = resource;
        f_attempt;
      }
      :: !faults_log
  in
  (* the jobs not yet done or shed, in (arrival, id) order; [live]: the
     arrived ones among them *)
  let unfinished f =
    Array.iter
      (fun p -> if Float.is_nan jobs.(p).finished then f jobs.(p))
      order
  in
  let live f = unfinished (fun j -> if j.arrived then f j) in
  (* [f j s id t] on every task [t] of the live jobs' running stages *)
  let running_tasks f =
    live (fun j ->
        let s = j.seg in
        for id = 0 to Array.length s.status - 1 do
          if s.status.(id) = Running then
            for k = 0 to Array.length s.tasks.(id) - 1 do
              f j s id s.tasks.(id).(k)
            done
        done)
  in
  let done_stages s =
    List.filter
      (fun id -> s.status.(id) = Done)
      (List.init (Array.length s.status) Fun.id)
  in
  let try_replan j s_trigger ~survivors =
    match replanner with
    | Some rp when !n_replans < max_replans_hard -> (
      let g = j.seg.g in
      match
        rp { s_at = !time; s_trigger; s_graph = g; s_survivors = survivors }
      with
      | Some { new_graph; plan_key; info } ->
        incr n_replans;
        replans_log :=
          {
            rp_at = !time;
            rp_trigger = s_trigger;
            rp_plan = plan_key;
            rp_info = info;
          }
          :: !replans_log;
        emit
          (Printf.sprintf "replan %d after %s -> %s" !n_replans
             (trigger_to_string s_trigger) plan_key);
        (* only the surviving checkpoints' work stays useful; the
           residual graph replaces the rest *)
        let stage_work id =
          List.fold_left
            (fun acc (t : Task_graph.task) ->
              acc +. total_of t.Task_graph.demands)
            0. g.Task_graph.stages.(id).Task_graph.tasks
        in
        let survived =
          List.fold_left (fun a id -> a +. stage_work id) 0. survivors
        in
        j.work <-
          j.work -. (Task_graph.total_work g -. survived)
          +. Task_graph.total_work new_graph;
        if new_graph.Task_graph.n_resources <> !live_dims then
          Parqo_error.fail ~subsystem:"simulator"
            "replanned graph resource-dimension mismatch";
        (match Task_graph.validate new_graph with
        | Ok () -> ()
        | Error msg ->
          Parqo_error.fail ~subsystem:"simulator"
            ("invalid replanned task graph: " ^ msg));
        j.seg <- segment new_graph;
        j.fresh <- true;
        guard := 0;
        true
      | None -> false)
    | _ -> false
  in
  let start_attempt s sid t =
    let a = t.attempt + 1 in
    t.attempt <- a;
    if a > 1 then incr n_retries;
    let d =
      if fc.Fault.task_fail_rate > 0. || fc.Fault.straggler_rate > 0. then
        Fault.draw fc ~stage:sid ~task:t.tid ~attempt:a
      else calm
    in
    t.rem <- Array.map (fun x -> x *. d.Fault.slowdown) t.demands;
    let tot = total_of t.rem and base = total_of t.demands in
    t.total <- tot;
    if tot > base +. s.eps_w then s.rework <- s.rework +. (tot -. base);
    t.wake <- 0.;
    t.fail_at <-
      (if d.Fault.fails && tot > s.eps_w then d.Fault.fail_point *. tot
       else infinity);
    if d.Fault.slowdown > 1. +. eps then begin
      log_fault Fault.Straggler ~stage:sid ~task:t.name a;
      emit
        (Printf.sprintf "task %s straggles x%.1f (attempt %d)" t.name
           d.Fault.slowdown a)
    end
  in
  let drained s t =
    let ok = ref true in
    for r = 0 to Array.length t.rem - 1 do
      if t.rem.(r) > s.eps_w then ok := false
    done;
    !ok
  in
  let work_done t = t.total -. total_of t.rem in
  let due_failure s t =
    t.fail_at < infinity && work_done t >= t.fail_at -. s.eps_w
  in
  let rec start_ready j =
    let s = j.seg in
    for id = 0 to Array.length s.status - 1 do
      if
        s.status.(id) = Pending
        && List.for_all
             (fun d -> s.status.(d) = Done)
             s.g.Task_graph.stages.(id).Task_graph.deps
      then begin
        s.status.(id) <- Running;
        if Float.is_nan s.start_t.(id) then begin
          s.start_t.(id) <- !time;
          emit (Printf.sprintf "%sstage %d start" j.prefix id)
        end
        else emit (Printf.sprintf "%sstage %d restart" j.prefix id);
        Array.iter (start_attempt s id) s.tasks.(id);
        if Array.for_all (drained s) s.tasks.(id) then complete j id
      end
    done
  and complete j id =
    let s = j.seg in
    s.status.(id) <- Done;
    s.finish_t.(id) <- !time;
    emit (Printf.sprintf "%sstage %d done" j.prefix id);
    start_ready j
  in
  let remaining_work j =
    let s = j.seg and acc = ref 0. in
    Array.iteri
      (fun id st ->
        if st <> Done then
          Array.iter
            (fun t -> Array.iter (fun d -> acc := !acc +. d) t.rem)
            s.tasks.(id))
      s.status;
    !acc
  in
  let finish j =
    j.finished <- !time;
    decr open_jobs
  in
  (* admission: (backlog + own work) over total capacity, the
     processor-sharing completion bound; [infinity] in a blackout *)
  let arrive j =
    j.arrived <- true;
    let estimate () =
      let backlog = ref 0. in
      live (fun j -> backlog := !backlog +. remaining_work j);
      let c = total_of cap in
      if c > eps then !backlog /. c else if !backlog > eps then infinity else 0.
    in
    match j.spec.deadline with
    | Some dl when estimate () > dl +. 1e-12 ->
      let reason =
        Printf.sprintf "estimated response %.3g exceeds deadline %.3g"
          (estimate ()) dl
      in
      j.rejected <- Some reason;
      finish j;
      emit (Printf.sprintf "%srejected (%s)" j.prefix reason)
    | _ ->
      if j.prefix <> "" then emit (j.prefix ^ "arrives");
      start_ready j
  in
  let onset (o : Fault.outage) =
    let r = o.Fault.resource and factor = o.Fault.factor in
    emit
      (Printf.sprintf "resource %d down x%.2f for %.1f" r factor
         o.Fault.duration);
    log_fault Fault.Resource_outage ~resource:r 0;
    if factor <= eps && (recovery = Recovery.Restart_from_sync || is_replan)
    then
      unfinished (fun j ->
          let s = j.seg in
          let lost id =
            s.status.(id) = Done
            && Array.exists
                 (fun t ->
                   r < Array.length t.demands && t.demands.(r) > s.eps_w)
                 s.tasks.(id)
          in
          (* recovery is about to cross a sync point: offer the surviving
             checkpoint frontier to the re-planner *)
          let spliced =
            is_replan
            && List.exists lost (done_stages s)
            && try_replan j (Checkpoint_loss { resource = r })
                 ~survivors:
                   (List.filter (fun id -> not (lost id)) (done_stages s))
          in
          if not spliced then begin
            (* the loss destroys checkpoints resident on [r]: finished
               stages there re-execute, and running consumers of a lost
               checkpoint wait for it *)
            Array.iteri
              (fun id _ ->
                if lost id then begin
                  s.status.(id) <- Pending;
                  s.finish_t.(id) <- nan;
                  emit
                    (Printf.sprintf "%sstage %d checkpoint lost (resource %d)"
                       j.prefix id r)
                end)
              s.status;
            Array.iteri
              (fun id (st : Task_graph.stage) ->
                if
                  s.status.(id) = Running
                  && List.exists
                       (fun d -> s.status.(d) = Pending)
                       st.Task_graph.deps
                then begin
                  s.status.(id) <- Pending;
                  emit
                    (Printf.sprintf "%sstage %d waits (input lost)" j.prefix id)
                end)
              s.g.Task_graph.stages;
            if j.arrived then start_ready j
          end)
    else if
      is_replan && factor > eps
      && factor < 1. -. eps
      && o.Fault.duration > eps
    then
      (* a brownout destroys nothing, but a re-planner may prefer to
         steer the residual work away from the slowed resource *)
      unfinished (fun j ->
          ignore
            (try_replan j (Slowdown { resource = r; factor })
               ~survivors:(done_stages j.seg)))
  in
  let process_events () =
    (* same-instant grows are offered to the re-planner as one batch *)
    let newly = ref 0 in
    let offer_scale_out () =
      if !newly > 0 && is_replan then
        unfinished (fun j ->
            ignore
              (try_replan j (Scale_out { n_new = !newly })
                 ~survivors:(done_stages j.seg)));
      newly := 0
    in
    while !cursor < n_ev && ev_at.(!cursor) <= !time +. 1e-12 do
      let k = !cursor in
      incr cursor;
      if ev_res.(k) >= 0 then cap.(ev_res.(k)) <- ev_cap.(k);
      (match ev_kind.(k) with Grow _ -> () | _ -> offer_scale_out ());
      match ev_kind.(k) with
      | Grow i ->
        incr newly;
        incr live_dims;
        emit
          (Printf.sprintf "resource %d joins (%s, speed %.2f)" (nr + i)
             (Parqo_machine.Resource.kind_to_string grows.(i).Fault.g_kind)
             grows.(i).Fault.g_speed);
        log_fault Fault.Scale_out ~resource:(nr + i) 0
      | Onset i -> onset outages.(i)
      | Expiry i ->
        emit (Printf.sprintf "resource %d restored" outages.(i).Fault.resource)
      | Speed i ->
        let e = speeds.(i) in
        emit
          (Printf.sprintf "resource %d speed -> %.3g" e.ev_resource e.ev_speed)
      | Arrival p -> arrive jobs.(p)
    done;
    offer_scale_out ()
  in
  let maybe_inflation_replan j =
    let s = j.seg in
    (* at least one checkpoint must anchor the residual — otherwise the
       restart policies already do the best possible thing *)
    if
      is_replan && Option.is_some replanner && replan_threshold < infinity
      && s.seg_base > s.eps_w
      && s.rework > replan_threshold *. s.seg_base
      && done_stages s <> []
    then
      ignore
        (try_replan j (Work_inflation { ratio = s.rework /. s.seg_base })
           ~survivors:(done_stages s))
  in
  let inject_due_failures () =
    let fired = ref false in
    if fc.Fault.task_fail_rate > 0. then
      running_tasks (fun j s id t ->
          if due_failure s t then begin
            fired := true;
            let a = t.attempt in
            log_fault Fault.Task_failure ~stage:id ~task:t.name a;
            emit (Printf.sprintf "task %s fault (attempt %d)" t.name a);
            match recovery with
            | Recovery.Retry_task _ ->
              s.rework <- s.rework +. work_done t;
              start_attempt s id t;
              t.wake <- !time +. Recovery.backoff_delay recovery ~attempt:a
            | Recovery.Restart_stage | Recovery.Restart_from_sync
            | Recovery.Replan _ ->
              Array.iter
                (fun u -> s.rework <- s.rework +. work_done u)
                s.tasks.(id);
              emit (Printf.sprintf "%sstage %d restart" j.prefix id);
              Array.iter (start_attempt s id) s.tasks.(id)
          end);
    !fired
  in
  (* per resource, the eligible jobs are the contenders with the least
     (remaining work, tie) key: every contender under fair sharing, the
     top priority class, or the single SRW winner *)
  let tie j =
    match policy with
    | Fair_share -> 0
    | Strict_priority -> -j.spec.priority
    | Shortest_remaining_work -> j.spec.job_id
  in
  let same j b = srw.(j.pos) = srw.(b.pos) && tie j = tie b in
  let share () =
    live (fun j ->
        Array.fill j.counts 0 nr_total 0;
        Array.fill j.factor 0 nr_total 0.;
        srw.(j.pos) <-
          (if policy = Shortest_remaining_work then remaining_work j else 0.));
    running_tasks (fun j s _ t ->
        t.active <- t.wake <= !time +. 1e-12 && not (drained s t);
        if t.active then
          for r = 0 to Array.length t.rem - 1 do
            if t.rem.(r) > s.eps_w then j.counts.(r) <- j.counts.(r) + 1
          done);
    for r = 0 to nr_total - 1 do
      let best = ref (-1) and n = ref 0 in
      live (fun j ->
          if j.counts.(r) > 0 then
            if !best >= 0 && same j jobs.(!best) then incr n
            else if
              !best < 0
              || srw.(j.pos) < srw.(!best)
              || (srw.(j.pos) = srw.(!best) && tie j < tie jobs.(!best))
            then begin
              best := j.pos;
              n := 1
            end);
      contended.(r) <- !n > 0;
      live (fun j ->
          if j.counts.(r) > 0 && same j jobs.(!best) then
            j.factor.(r) <- float_of_int j.counts.(r) *. float_of_int !n)
    done
  in
  let step () =
    share ();
    let dt = ref infinity in
    let consider x = if x > 1e-12 && x < !dt then dt := x in
    running_tasks (fun j s _ t ->
        if t.active then begin
          let rate = ref 0. in
          for r = 0 to Array.length t.rem - 1 do
            let d = t.rem.(r) and f = j.factor.(r) in
            if d > s.eps_w && f > 0. && cap.(r) > eps then begin
              consider (d *. f /. cap.(r));
              rate := !rate +. (cap.(r) /. f)
            end
          done;
          if t.fail_at < infinity && !rate > eps then
            consider ((t.fail_at -. work_done t) /. !rate)
        end
        else if t.wake > !time +. 1e-12 && Array.exists (fun d -> d > eps) t.rem
        then consider (t.wake -. !time));
    if !cursor < n_ev then consider (ev_at.(!cursor) -. !time);
    (* demand left, no progress possible and no capacity change to come:
       it sits on a resource that never returns *)
    if !dt = infinity then
      Parqo_error.failf ~subsystem
        "starved at t=%.2f: demand left on zero-capacity resources and no \
         capacity change to come"
        !time;
    let dt = !dt in
    time := !time +. dt;
    for r = 0 to nr_total - 1 do
      if contended.(r) && cap.(r) > eps then
        busy.(r) <- busy.(r) +. (cap.(r) *. dt)
    done;
    running_tasks (fun j s _ t ->
        if t.active then begin
          for r = 0 to Array.length t.rem - 1 do
            let d = t.rem.(r) and f = j.factor.(r) in
            if d > s.eps_w && f > 0. && cap.(r) > eps then begin
              let d' = d -. (dt *. cap.(r) /. f) in
              t.rem.(r) <- (if d' <= s.eps_w then 0. else d')
            end
          done;
          if drained s t && not (due_failure s t) then
            emit (Printf.sprintf "task %s done" t.name)
        end)
  in
  while !open_jobs > 0 && !guard < max_events do
    incr guard;
    process_events ();
    unfinished maybe_inflation_replan;
    unfinished (fun j ->
        if j.fresh then begin
          j.fresh <- false;
          if j.arrived then start_ready j
        end);
    if not (inject_due_failures ()) then begin
      (* complete exhausted stages before looking for timed events *)
      let completed = ref false in
      live (fun j ->
          let s = j.seg in
          Array.iteri
            (fun id st ->
              if st = Running && Array.for_all (drained s) s.tasks.(id)
              then begin
                complete j id;
                completed := true
              end)
            s.status);
      live (fun j ->
          if Array.for_all (fun st -> st = Done) j.seg.status then begin
            finish j;
            if j.prefix <> "" then emit (j.prefix ^ "done")
          end);
      if (not !completed) && !open_jobs > 0 then step ()
    end
  done;
  if !open_jobs > 0 then Parqo_error.fail ~subsystem "did not converge";
  {
    makespan = !time;
    busy;
    trace = List.rev !trace;
    faults = List.rev !faults_log;
    n_retries = !n_retries;
    replans = List.rev !replans_log;
    jobs =
      Array.map
        (fun j ->
          {
            job_id = j.spec.job_id;
            label = j.spec.label;
            arrival = j.spec.arrival;
            started = j.spec.arrival;
            finished = j.finished;
            response = j.finished -. j.spec.arrival;
            work = j.work;
            disposition =
              (match j.rejected with None -> Completed | Some r -> Rejected r);
            stage_start = by_time j.seg.start_t;
            stage_finish = by_time j.seg.finish_t;
          })
        jobs;
  }

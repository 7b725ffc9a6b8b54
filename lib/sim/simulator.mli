(** A fluid discrete-event simulator of parallel plan execution, with
    optional fault injection and recovery.

    Resources are preemptable and time-shared (the paper's §5.2.1
    assumptions, realized as processor sharing): at any instant, each
    resource divides its capacity equally among the tasks of running
    stages that still demand it; a task progresses on all its resources
    concurrently and finishes when every demand is exhausted; a stage
    finishes when all its tasks do, releasing dependent stages.  The
    makespan is the simulated response time.  The sequential-execution
    baseline of the §5 desiderata — one task at a time — takes exactly
    {!Task_graph.total_work}.

    A run is the one-job case of the workload scheduler's event loop
    ({!Scheduler.run}): the query arrives at time 0 on an otherwise idle
    machine.  A demand counts as exhausted once it falls to
    [max 1e-9 (1e-12 * total work)] of the graph being run — a fixed
    tolerance could never be met once one ulp of the work exceeds it.

    With a {!Fault.config} the simulator injects fail-stop task faults,
    stragglers and resource outages from a deterministic seed-driven
    schedule, and recovers per the {!Recovery.policy}: a stage is a
    pipelined segment, its dependency edges are materialized sync points,
    so recovery re-executes the failed segment back to its nearest
    checkpoint.  Fault-free runs and runs under a config that never
    fires are the same loop, so they agree bit for bit.

    Under the {!Recovery.Replan} policy a [replanner] callback can be
    supplied: when recovery crosses a sync point (a full-loss outage
    destroys checkpoints, or cumulative rework exceeds the policy
    threshold), the simulator snapshots the surviving checkpoint
    frontier and asks the callback for a task graph of the {e residual}
    query; if one is returned it is spliced in and simulation continues
    on it, on the same clock and busy counters.  When the callback
    declines (or none is given), [Replan] behaves exactly like
    [Restart_from_sync]. *)

type event = {
  at : float;
  what : string;  (** e.g. ["task sort done"], ["stage 3 start"] *)
}

type fault_event = {
  f_at : float;
  f_kind : Fault.kind;
  f_stage : int option;  (** the affected stage, for task-level faults *)
  f_task : string option;  (** the affected task's label *)
  f_resource : int option;  (** the lost resource, for outages *)
  f_attempt : int;  (** which attempt faulted (from 1); [0] for outages *)
}

type replan_trigger =
  | Checkpoint_loss of { resource : int }
      (** a full-loss outage destroyed checkpoints on [resource] *)
  | Work_inflation of { ratio : float }
      (** cumulative rework reached [ratio] × the graph's base work *)
  | Slowdown of { resource : int; factor : float }
      (** a brownout began: [resource] runs at [factor] of its capacity —
          nothing is destroyed, but the residual work may be worth
          steering elsewhere *)
  | Scale_out of { n_new : int }
      (** [n_new] grown resources just came online; only a re-planned
          graph (lowered on the grown machine) can place work on them *)

val trigger_to_string : replan_trigger -> string
(** e.g. ["checkpoint loss (resource 3)"], ["work inflation (0.62x)"] *)

type replan_event = {
  rp_at : float;  (** simulation time of the splice *)
  rp_trigger : replan_trigger;
  rp_plan : string;  (** canonical key of the chosen residual plan *)
  rp_info : string;  (** re-optimization summary (expansions, fallback…) *)
}

type snapshot = {
  s_at : float;  (** current simulation time *)
  s_trigger : replan_trigger;
  s_graph : Task_graph.t;  (** the graph being abandoned *)
  s_survivors : int list;
      (** stage ids of [s_graph] whose materialized outputs survive —
          the checkpoint frontier the residual query may build on *)
}

type replan = {
  new_graph : Task_graph.t;
      (** residual graph; its [n_resources] must equal the machine's
          {e current} dimension — the initial graph's plus every grow
          event already online *)
  plan_key : string;
  info : string;
}

type replanner = snapshot -> replan option
(** Returning [None] declines — the simulator falls back to
    [Restart_from_sync] semantics for this trigger. *)

type outcome = {
  makespan : float;
      (** end-to-end completion time; includes recovery re-execution when
          faults were injected *)
  busy : float array;
      (** per-resource busy time; equals per-resource demand totals in a
          failure-free run, and includes re-executed and inflated work
          under faults.  With scale-out events the array covers the grown
          dimensions too (initial [n_resources] + one per grow event, in
          onset order). *)
  total_work : float;
      (** failure-free work of the graph; after a re-plan splice, the
          surviving checkpoints' work plus the residual graph's work *)
  stage_start : (int * float) list;
      (** first activation time per stage (restarts do not move it);
          stages of the {e final} graph when re-planning spliced one in *)
  stage_finish : (int * float) list;
      (** final completion time per stage; both stage lists are ordered
          by (time, stage id) *)
  trace : event list;  (** chronological; includes fault events *)
  n_faults : int;
      (** injected faults: fail-stops + stragglers + outages; [0] without
          fault injection *)
  n_retries : int;  (** task re-executions beyond each task's first attempt *)
  n_replans : int;  (** re-plan splices performed (0 unless [Replan]) *)
  replans : replan_event list;  (** chronological *)
  faults : fault_event list;  (** chronological *)
}

val run :
  ?faults:Fault.config -> ?recovery:Recovery.policy -> ?replanner:replanner ->
  Task_graph.t -> outcome
(** [recovery] defaults to {!Recovery.default}.  Without [faults] (or
    with a config that never fires) the fault counters are zero and the
    result is bit-identical across those cases.  [replanner] is
    consulted only under the [Replan] policy.  Raises
    {!Parqo_util.Parqo_error.Error} on an invalid graph or fault config
    (task-graph validation per {!Task_graph.validate} also covers every
    spliced residual graph), and when every remaining demand sits on a
    permanently lost resource. *)

val simulate_plan :
  ?faults:Fault.config -> ?recovery:Recovery.policy ->
  Parqo_cost.Env.t -> Parqo_plan.Join_tree.t -> outcome
(** Expand, lower and simulate a join tree in one call. *)

val utilization : outcome -> float
(** [total_work / (makespan * n_resources)] — the fraction of machine
    capacity used; in (0, 1] for failure-free runs (re-execution under
    faults can only lower it). *)

val timeline : ?width:int -> outcome -> string
(** An ASCII Gantt chart of stage lifetimes, one row per stage:
    {v
    stage 1  |   ======                  | 12.0 .. 48.3
    stage 0  |         ================  | 48.3 .. 130.0  (2 faults)
    v}
    [width] (default 50) is the bar area in characters; rows of stages
    that suffered faults are annotated with the fault count, and one
    trailing line per re-plan splice records when and why it fired. *)

(** Workload co-scheduling: many task graphs sharing one machine.

    The single-query simulator ({!Simulator}) prices one plan against an
    idle machine; this module runs a {e workload} — jobs with arrival
    instants drawn from a {!Workload.arrival} process — through the
    simulator's own event loop (a simulation is its one-job case), under
    a scheduling policy, and reports
    per-query response times plus workload-level statistics.  That makes
    the work-bound dual of the paper's §2 measurable: under contention,
    response time is governed by total work, so low-work plans beat
    solo-optimal (low-response-time) plans — see {!expected_pressure}
    and [Optimizer.minimize_under_contention].

    Model: per resource and instant, the policy selects the {e eligible}
    jobs among those demanding the resource; eligible jobs split its
    unit capacity evenly, and within a job the share splits evenly over
    its demanding tasks (the single-query simulator's processor
    sharing).  Ineligible jobs are preempted on that resource.  With one
    job every policy degenerates to {!Simulator.run}, bit-identically
    (Int64-bit float equality) — the per-task slowdown factor is
    [count * n_eligible] and multiplication by [1.0] is IEEE-exact.
    On every demanded resource the eligible class drains exactly at
    capacity, so per-resource busy time equals delivered work (busy
    conservation) and utilization never exceeds 1.  As in the
    simulator, a demand counts as drained at one part in 1e12 of its
    job's work (at least 1e-9), and stage lists are ordered by (time,
    stage id). *)

type policy =
  | Fair_share
      (** processor sharing across all jobs demanding the resource *)
  | Strict_priority
      (** only the highest-priority demanding class runs (larger
          {!job.priority} wins); the class shares the resource evenly *)
  | Shortest_remaining_work
      (** the single demanding job with the least total remaining work
          (ties by lowest [job_id]) owns the resource — SRPT lifted to
          multi-resource DAGs *)

val policy_to_string : policy -> string
(** ["fair"] / ["priority"] / ["srw"]. *)

val policy_of_string : string -> (policy, string) result
(** Accepts the names above plus common aliases ([fair-share], [ps],
    [strict-priority], [srpt], [shortest-remaining-work]); the error
    lists valid names. *)

val all_policies : policy list

type job = {
  job_id : int;  (** unique within the workload *)
  label : string;  (** for traces; [""] shows as [q<id>] *)
  arrival : float;  (** time units from workload start; finite, >= 0 *)
  priority : int;  (** larger = more urgent; only [Strict_priority] reads it *)
  deadline : float option;
      (** response-time budget from arrival, finite and positive; [None]
          admits unconditionally.  At the arrival instant the scheduler
          estimates the job's response as (active backlog + its own
          work) / total effective speed and sheds the job ([Rejected])
          when the estimate exceeds the budget. *)
  graph : Task_graph.t;
}

val job :
  ?label:string -> ?priority:int -> ?arrival:float -> ?deadline:float ->
  job_id:int -> Task_graph.t -> job
(** [label] defaults to [""], [priority] to [0], [arrival] to [0.],
    [deadline] to [None]. *)

type event = { at : float; what : string }

type machine_event = { ev_at : float; ev_resource : int; ev_speed : float }
(** The machine changing under the workload: from instant [ev_at] on,
    resource [ev_resource] delivers capacity [ev_speed] (absolute, not a
    delta; [1.] is nominal, [0.] an outage, values in between a
    brownout, above [1.] a speed-up).  Same-instant events on one
    resource apply in list order — the last one wins.  An event that
    leaves a resource at its current speed is a no-op and is dropped, so
    an all-nominal ([1.0]) event list is bit-identical to no events at
    all. *)

type disposition =
  | Completed
  | Rejected of string
      (** shed at admission; the string says why (estimate vs deadline) *)

type job_outcome = {
  job_id : int;
  label : string;
  arrival : float;
  started : float;  (** instant the job was admitted (its arrival) *)
  finished : float;  (** instant its last stage completed *)
  response : float;  (** [finished - arrival]; [0.] for a rejected job *)
  work : float;  (** total work of its task graph (offered, even if shed) *)
  disposition : disposition;
  stage_start : (int * float) list;  (** empty for a rejected job *)
  stage_finish : (int * float) list;
}

type outcome = {
  policy : policy;
  jobs : job_outcome array;  (** ascending [job_id] *)
  makespan : float;  (** workload start to last completion *)
  busy : float array;
      (** per-resource busy time in delivered-work units: a contended
          resource accrues [dt * speed], so busy conservation holds
          against effective capacity *)
  total_work : float;  (** sum over admitted (non-rejected) jobs *)
  trace : event list;
}

type summary = {
  n_jobs : int;
  n_rejected : int;  (** jobs shed by admission control *)
  makespan : float;
  utilization : float;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;  (** response-time quantiles over completed jobs *)
  max : float;
}

val run : ?policy:policy -> ?events:machine_event list -> job array -> outcome
(** Co-schedule the jobs.  [policy] defaults to [Fair_share]; [events]
    (default none) is the timed machine-event list — per-resource speeds
    are piecewise-constant, starting at [1.] and switching at each
    event's instant.  Tasks drain a resource at [speed / factor] and a
    speed-0 window parks demand until capacity returns.  With no events
    and no deadlines the run is bit-identical (Int64-bit float equality)
    to the fixed-capacity scheduler — all speeds are [1.0] and
    multiplication/division by [1.0] is IEEE-exact.

    Raises {!Parqo_util.Parqo_error.Error} (subsystem ["scheduler"]) on
    an empty workload, duplicate job ids, resource-dimension mismatches,
    invalid arrivals, deadlines, or machine events, graphs rejected by
    {!Task_graph.validate}, or a starved workload (demand left on
    zero-capacity resources with no future machine event); never raises
    on a valid, non-starved workload. *)

val summarize : outcome -> summary

val utilization : outcome -> float
(** [total_work / (makespan * n_resources)]; [1.] for an empty span. *)

val effective_speeds : Parqo_machine.Machine.t -> float array
(** Per-resource speed of the machine, indexed by resource id — the
    [?speeds] argument {!expected_pressure} wants for a degraded or
    heterogeneous machine. *)

val expected_pressure :
  ?horizon:float -> ?speeds:float array -> n_resources:int ->
  job array -> float array
(** The contention signal: per-resource offered load of the active set —
    total demanded work on each resource divided by [horizon].  The
    default horizon is the arrival span plus the mean job's solo drain
    time (the window over which that work lands on the machine), so a
    burst of [k] unit jobs yields pressure ~[k ×] each job's per-resource
    share.  [speeds] (length [n_resources]) rescales each resource's
    pressure by its effective capacity — a half-speed resource is twice
    as loaded by the same work, and a zero-speed resource with offered
    work reads [infinity]; omitted, capacity is nominal and the result
    is bit-identical to the pre-speed signal.  Feed it to
    [Metric.contention_rank] / [Optimizer.minimize_under_contention] to
    re-rank plans for a loaded machine.  Raises [Invalid_argument] on a
    non-positive [horizon] or a mis-sized [speeds]. *)

(* What every workload shares: the run context, timing helpers, sample
   statistics, the result record and the metric tables. *)

type ctx = {
  seed : int;
  seconds : float;  (** measured time of the run *)
  trace : bool;
  width : int;  (** domain-pool width, at most nproc *)
  out_dir : string;  (** where the Chrome trace goes *)
}

type result = {
  correct : bool;  (** every output check passed *)
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  header : (string * string) list;
      (** extra header fields: sample counts, tail percentile, sizes *)
}

(* the end-to-end metrics every untraced run reports, with units *)
let end_to_end =
  [
    ("setup_s", "s");
    ("op_p50_ms", "ms");
    ("op_tail_ms", "ms");
    ("ops_per_s", "1/s");
    ("peak_heap_mb", "MB");
  ]

(* the per-layer metrics every traced run reports; a layer a workload
   does not exercise reads 0 *)
let per_layer =
  [
    ("plan.makespan_geomean", "sim_units");
    ("podp.us_per_plan", "us");
    ("podp.words_per_plan", "words");
    ("podp.generated", "count");
    ("podp.considered", "count");
    ("podp.stored_peak", "count");
    ("podp.cover_max", "count");
    ("podp.last_level_share", "ratio");
    ("podp.gave_up_share", "ratio");
    ("pool.parallel_regions", "count");
    ("pool.parks", "count");
    ("pool.spawned", "count");
    ("bushy.us_per_plan", "us");
    ("bushy.generated", "count");
    ("optimizer.outside_levels_ms", "ms");
    ("costmodel.evaluate_us", "us");
    ("server.queue_wait_ms.p50", "ms");
    ("server.queue_wait_ms.p99", "ms");
    ("server.service_ms.p50", "ms");
    ("server.service_ms.p99", "ms");
    ("server.cache_hit_ratio", "ratio");
    ("server.miss_optimize_ms.p50", "ms");
    ("server.deadline_overshoot_ms.p99", "ms");
    ("server.degraded_share", "ratio");
    ("server.max_rate_qps", "1/s");
    ("server.retries", "count");
    ("server.epoch_bumps", "count");
    ("scheduler.run_ms", "ms");
    ("scheduler.events_per_s", "1/s");
    ("scheduler.events", "count");
    ("simulator.faulty_run_us", "us");
    ("simulator.events_per_s", "1/s");
    ("task_graph.lower_us", "us");
    ("parser.parse_us", "us");
    ("env.create_us", "us");
    ("parallel_exec.run_ms", "ms");
    ("executor.run_ms", "ms");
    ("batch.equal_bags_ms", "ms");
    ("datagen.setup_ms", "ms");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections_per_op", "count");
    ("trace.overhead", "ratio");
    ("trace.spans_per_pass", "count");
  ]

(* the per-layer counters that must repeat exactly for one seed *)
let exact_counters =
  [
    "podp.generated";
    "podp.considered";
    "podp.stored_peak";
    "podp.cover_max";
    "bushy.generated";
    "server.retries";
    "server.epoch_bumps";
    "scheduler.events";
    "trace.spans_per_pass";
  ]

let now = Unix.gettimeofday

(* CPU seconds of the whole process, every domain, from getrusage.  On a
   VM with steal-time accounting this leaves out the time the host gave
   the vCPU to someone else, which wall time counts. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [f ()] and its wall seconds *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* [f ()] and its CPU seconds *)
let cpu_timed f =
  let t0 = cpu_now () in
  let v = f () in
  (v, cpu_now () -. t0)

(* {1 The host's speed}

   A fixed probe of the host's speed, run after every op.  On a shared VM
   a neighbour on the same core or cache slows every instruction, and
   steal-time accounting cannot take that out of CPU time: on a 2-vCPU
   VM the same op on the same input took from 92 to 145 ms of CPU in
   runs minutes apart.  The probe does what the program's ops do most, allocate short
   lived OCaml values, but keeps nothing: what it allocates dies before
   the next minor collection, so the program's heap does not change its
   time.  Dividing each op's CPU time by the probe's time right after it
   takes most of the host's drift out (see README.md, Steadiness). *)
module Probe = struct
  let reps = 5_000

  let work () =
    let acc = ref 0 in
    for r = 1 to reps do
      let l = List.init 64 (fun i -> (i, r)) in
      let l = List.rev_map (fun (a, b) -> (b, a + 1)) l in
      acc := !acc + List.fold_left (fun s (a, b) -> s + a + b) 0 l
    done;
    !acc

  (* CPU seconds of one probe *)
  let time () = snd (cpu_timed work)

  (* the probe's CPU seconds on the reference host, about this one's
     when quiet (2-vCPU VM, OCaml 5.1.1) *)
  let reference = 0.005

  (* [t] CPU seconds measured when the probe took [probe]: what they
     would have been on the reference host *)
  let normalize t ~probe = t *. reference /. probe
end

(* seconds of CPU the host stole from this VM so far, over all vCPUs
   (the steal column of /proc/stat); 0 where there is none *)
let steal_s () =
  match In_channel.with_open_text "/proc/stat" input_line with
  | line -> (
    match String.split_on_char ' ' line |> List.filter (( <> ) "") with
    | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
      float_of_string steal /. 100.
    | _ -> 0.)
  | exception Sys_error _ -> 0.

(* {1 Sample statistics} *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* nearest-rank quantile, q in [0, 1] *)
let quantile a q =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median a = quantile a 0.5

(* The tail: the highest percentile with at least ten samples beyond it,
   i.e. the (n-10)th smallest sample.  Returns the value and the
   percentile it sits at; below 11 samples the maximum (percentile 100). *)
let tail a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then (nan, 0.)
  else if n <= 10 then (s.(n - 1), 100.)
  else (s.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n)

let mean a =
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let geomean a =
  if Array.length a = 0 then nan
  else exp (Array.fold_left (fun acc x -> acc +. log x) 0. a /. float_of_int (Array.length a))

(* {1 Search counters} *)

module O = Parqo.Optimizer
module SS = Parqo.Search_stats

let sum f l = List.fold_left (fun a x -> a +. f x) 0. l
let level_ms (s : SS.t) = sum (fun (l : SS.level) -> l.SS.wall_ms) (SS.levels s)

let last_level_ms (s : SS.t) =
  match List.rev (SS.levels s) with l :: _ -> l.SS.wall_ms | [] -> 0.

(* The partial-order DP's metrics over one pass of left-deep searches,
   each with its wall seconds.  Counts are sums over the pass, except
   the peaks, which are maxima. *)
let podp_metrics (pass : (O.outcome * float) list) =
  let count f = sum (fun ((o : O.outcome), _) -> float_of_int (f o.O.stats)) pass in
  let peak f =
    float_of_int (List.fold_left (fun a ((o : O.outcome), _) -> max a (f o.O.stats)) 0 pass)
  in
  let generated = count (fun s -> s.SS.generated) in
  let levels = sum (fun ((o : O.outcome), _) -> level_ms o.O.stats) pass in
  [
    ("podp.us_per_plan", levels *. 1000. /. generated);
    ( "podp.words_per_plan",
      sum (fun ((o : O.outcome), _) -> o.O.stats.SS.minor_words +. o.O.stats.SS.major_words) pass
      /. generated );
    ("podp.generated", generated);
    ("podp.considered", count (fun s -> s.SS.considered));
    ("podp.stored_peak", peak (fun s -> s.SS.stored_peak));
    ("podp.cover_max", peak (fun s -> s.SS.cover_max));
    ( "podp.last_level_share",
      sum (fun ((o : O.outcome), _) -> last_level_ms o.O.stats) pass /. levels );
    ( "optimizer.outside_levels_ms",
      sum (fun ((o : O.outcome), dt) -> (dt *. 1000.) -. level_ms o.O.stats) pass
      /. float_of_int (List.length pass) );
  ]

(* {1 Set-up and the measured loop} *)

(* CPU seconds to settle the garbage of what just ran: a minor
   collection and the major-GC work its allocation owes.  Added to a
   timed call, it makes the call pay for its own GC, and a probe after
   it starts from an empty minor heap and no debt. *)
let settle () = snd (cpu_timed (fun () -> ignore (Gc.major_slice 0)))

(* Run [setup] [repeats] times, each followed by a probe, and keep the
   last state; returns the state and the median set-up CPU time,
   normalized to the reference host and as measured.  Each repeat first
   drops the previous state ([discard] releases what the GC cannot), so
   only one state is ever live.  The count is fixed per workload, not
   by a clock, so the heap's high-water mark does not move with the
   host's speed. *)
let setup_median ?(discard = ignore) ~repeats setup =
  let times = Array.make repeats 0. and norm = Array.make repeats 0. in
  let state = ref None in
  for k = 0 to repeats - 1 do
    Option.iter discard !state;
    state := None;
    let st, dt = cpu_timed setup in
    let dt = dt +. settle () in
    times.(k) <- dt;
    norm.(k) <- Probe.normalize dt ~probe:(Probe.time ());
    state := Some st
  done;
  (Option.get !state, median norm, median times)

type loop = {
  times : float array;  (** CPU seconds per op, as [op] timed them *)
  probes : float array;  (** CPU seconds of the probe run after each op *)
  minor_words : float;  (** allocated by the ops, the probes left out *)
  major_collections : int;  (** during the ops *)
  loop_wall : float;  (** wall seconds of the whole loop *)
  loop_cpu : float;  (** CPU seconds of the whole loop *)
  loop_steal : float;  (** seconds stolen from the VM during the loop *)
}

(* Closed loop, one client: call [op i] for i = 0, 1, ... until
   [seconds] have passed and at least [min_ops] ops ran, with a probe
   after each.  Each op's time is what [op] returns, the CPU time of its
   timed call, plus the time to settle its garbage and its checks'
   ([settle]). *)
let closed_loop ~seconds ~min_ops op =
  let times = ref [] and probes = ref [] in
  let minor = ref 0. and major = ref 0 in
  let t0 = now () and c0 = cpu_now () and s0 = steal_s () in
  let i = ref 0 in
  while !i < min_ops || now () -. t0 < seconds do
    let g0 = Gc.quick_stat () in
    let dt = op !i in
    times := (dt +. settle ()) :: !times;
    let g1 = Gc.quick_stat () in
    minor := !minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    major := !major + (g1.Gc.major_collections - g0.Gc.major_collections);
    probes := Probe.time () :: !probes;
    incr i
  done;
  {
    times = Array.of_list (List.rev !times);
    probes = Array.of_list (List.rev !probes);
    minor_words = !minor;
    major_collections = !major;
    loop_wall = now () -. t0;
    loop_cpu = cpu_now () -. c0;
    loop_steal = steal_s () -. s0;
  }

(* each op's time normalized to the reference host *)
let normalized l = Array.map2 (fun t probe -> Probe.normalize t ~probe) l.times l.probes

let gc_metrics l =
  let n = float_of_int (max 1 (Array.length l.times)) in
  [
    ("gc.minor_words_per_op", l.minor_words /. n);
    ("gc.major_collections_per_op", float_of_int l.major_collections /. n);
  ]

(* peak resident set of the process (VmHWM), the heap's high-water mark
   as the kernel sees it *)
let peak_heap_mb () =
  let status = "/proc/self/status" in
  let rec scan ic =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ic
    | exception End_of_file -> 0
  in
  let kb = if Sys.file_exists status then In_channel.with_open_text status scan else 0 in
  if kb > 0 then float_of_int kb /. 1024.
  else
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

(* the median op time of each of the [n] entries of a mix that ops
   cycle through (op i is entry i mod n) *)
let entry_medians n walls =
  Array.init n (fun k ->
      median
        (Array.of_list (List.filteri (fun i _ -> i mod n = k) (Array.to_list walls))))

(* The untraced end-to-end metrics of a closed-loop workload whose ops
   cycle through a mix of [entries], from op times normalized to the
   reference host.  The typical op is the mean over the mix of each
   entry's median: a median over all ops of a mix of unequal queries
   sits on the edge of one query's cluster and jumps to the next when
   the seed's data shifts them.  The header keeps the figures as
   measured. *)
let closed_metrics ~entries ~setup:(setup_s, setup_raw) l =
  let ms a = Array.map (fun t -> t *. 1000.) a in
  let norm = ms (normalized l) and raw = ms l.times in
  let tail_v, tail_p = tail norm in
  let p50 a = mean (entry_medians entries a) in
  ( [
      ("setup_s", setup_s);
      ("op_p50_ms", p50 norm);
      ("op_tail_ms", tail_v);
      (* ops per CPU second of the timed calls: the checks between ops
         are the benchmark's work, not the program's *)
      ("ops_per_s", float_of_int (Array.length norm) *. 1000. /. Array.fold_left ( +. ) 0. norm);
      ("peak_heap_mb", peak_heap_mb ());
    ],
    [
      ("samples", string_of_int (Array.length norm));
      ("tail_percentile", Printf.sprintf "%.2f" tail_p);
      ("clock", "cpu, normalized");
      ("probe_ms", Printf.sprintf "%.4f" (median l.probes *. 1000.));
      ("raw_setup_s", Printf.sprintf "%.6f" setup_raw);
      ("raw_op_p50_ms", Printf.sprintf "%.3f" (p50 raw));
      ("raw_op_tail_ms", Printf.sprintf "%.3f" (fst (tail raw)));
      ("loop_wall_s", Printf.sprintf "%.3f" l.loop_wall);
      ("loop_cpu_s", Printf.sprintf "%.3f" l.loop_cpu);
      ("loop_steal_s", Printf.sprintf "%.2f" l.loop_steal);
    ] )

(* median op time per mix entry, for the header: "label=ms,..." *)
let per_entry_p50 labels walls =
  String.concat ","
    (Array.to_list
       (Array.map2
          (fun label m -> Printf.sprintf "%s=%.1f" label (m *. 1000.))
          labels
          (entry_medians (Array.length labels) walls)))

(* {1 Output checks} *)

(* A failed check is recorded, not raised: it counts against the op it
   belongs to and makes the run incorrect. *)
type checks = { mutable violations : string list; mutable failed_ops : int }

let new_checks () = { violations = []; failed_ops = 0 }

let violation c fmt =
  Printf.ksprintf (fun msg -> c.violations <- msg :: c.violations) fmt

(* [check c ok fmt ...] records a violation when [ok] is false *)
let check c ok fmt =
  Printf.ksprintf
    (fun msg -> if not ok then c.violations <- msg :: c.violations)
    fmt

(* [f ()] as one op: the op fails when it records a violation *)
let counted c f =
  let before = List.length c.violations in
  let v = f () in
  if List.length c.violations > before then c.failed_ops <- c.failed_ops + 1;
  v

let result c ~attempted ~metrics ~header =
  {
    correct = c.violations = [];
    attempted;
    failed = c.failed_ops;
    metrics;
    header = header @ [ ("violations", String.concat "; " (List.rev c.violations)) ];
  }

let bits = Int64.bits_of_float

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* {1 Traced runs} *)

(* Spans on around [f]; then the span forest is checked and written out
   as a Chrome trace.  Returns [f]'s value, the spans and the file. *)
let traced ctx c ~workload f =
  Span.reset ();
  Span.enable true;
  let v = Fun.protect ~finally:(fun () -> Span.enable false) f in
  let spans = Span.all () in
  (match Span.check spans with Ok () -> () | Error e -> violation c "trace: %s" e);
  let path =
    Filename.concat ctx.out_dir
      (Printf.sprintf "trace-%s-seed%d.json" workload ctx.seed)
  in
  Span.write_chrome path spans;
  (v, spans, path)

(* A closed-loop traced run: [op] untraced for half the time, then
   [traced_op] (default [op]) traced for the other half. *)
let traced_loops ctx c ~workload ~min_ops ?traced_op op =
  let half = ctx.seconds /. 2. in
  let untraced = closed_loop ~seconds:half ~min_ops op in
  let l, spans, path =
    traced ctx c ~workload (fun () ->
        closed_loop ~seconds:half ~min_ops (Option.value traced_op ~default:op))
  in
  (untraced, l, spans, path)

(* durations (seconds) of every span called [name] *)
let durations spans name =
  Array.of_list
    (List.filter_map
       (fun (s : Span.t) -> if s.name = name then Some (Span.duration s) else None)
       spans)

(* mean duration of the spans called [name], in [scale] units per second;
   0 when there are none *)
let span_mean spans name ~scale =
  let d = durations spans name in
  if Array.length d = 0 then 0. else mean d *. scale

(* spans recorded for ops [0, n) — one pass of a workload's mix *)
let spans_in_first spans n =
  List.length (List.filter (fun (s : Span.t) -> s.op < n) spans)

let overhead ~untraced ~traced = median traced /. median untraced

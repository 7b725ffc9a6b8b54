(* serve — the optimizer as a service under an open loop.

   Poisson arrivals at a fixed rate below the knee, over the serving
   pool (24 queries of 2-4 relations that repeat), 100 ms deadlines and
   the default chaos (slow and poisoned attempts, an epoch bump every
   100 requests).  One long-lived server serves the stream, so its plan
   cache stays warm.  The server's clock is virtual: queueing lives on
   it, service time is the optimizer's real wall time.  A request's
   latency runs from its due arrival to its finish, so it includes
   queueing; a rejected request counts as beyond every limit.  The domain
   pool is not used. *)

open Harness
module S = Parqo_serve.Server
module Cm = Parqo.Costmodel

let rate = 30.
let deadline = 0.1

(* A run serves one stream in one [Server.run], so queueing builds as it
   would in production.  Its length is fixed by the run's seconds, not by
   how fast the host is: [requests_per_second] requests a second, about
   what the server gets through in a wall second. *)
let requests_per_second = 20.
let queue_cap = S.default_config.S.queue_cap

(* the rate ladder and its latency limit: 3x the deadline *)
let ladder = [ 10.; 20.; 30.; 45.; 60. ]
let ladder_requests = 80
let latency_limit = 3. *. deadline

type state = {
  catalog : Parqo.Catalog.t;
  pool : Parqo.Query.t array;
  machine : Parqo.Machine.t;
}

(* The query library is part of the workload's definition, like a
   benchmark's query templates: the serving pool drawn from one fixed
   seed.  The run's seed draws the stream over it — arrival instants,
   which query each request asks for — and the chaos. *)
let library_seed = 7

let setup () =
  let catalog, pool = Parqo.Workloads.serving_pool ~seed:library_seed () in
  { catalog; pool; machine = Parqo.Machine.shared_nothing ~nodes:4 () }

let config ~seed =
  {
    S.default_config with
    S.default_deadline = Some deadline;
    chaos = Parqo_serve.Chaos.default ~seed ();
  }

let server st cfg = S.create ~config:cfg ~machine:st.machine ~catalog:st.catalog ()

(* a stream of [n] requests with ids from [first], arriving at [rate] *)
let stream st rng ~first ~n ~rate =
  let arrivals = Parqo.Workloads.arrivals rng ~process:(Parqo.Workloads.Poisson rate) ~n in
  Array.mapi
    (fun i at ->
      { S.id = first + i; arrival = at; query = Parqo.Rng.pick rng st.pool; deadline = Some deadline })
    arrivals

let latency (c : S.completion) =
  match c.S.disposition with S.Rejected _ -> infinity | _ -> c.S.latency

(* the serving contract, checked on every stream *)
let check_stream c (r : S.run_result) reqs =
  let s = r.S.stats in
  check c (s.S.planned + s.S.degraded + s.S.rejected = Array.length reqs)
    "dispositions do not partition %d requests" (Array.length reqs);
  check c (Array.length r.S.completions = Array.length reqs) "completions lost";
  check c (s.S.max_in_flight <= queue_cap) "max in flight %d > queue cap" s.S.max_in_flight;
  Array.iter
    (fun (cp : S.completion) ->
      match (cp.S.disposition, cp.S.plan) with
      | S.Rejected _, None -> ()
      | S.Rejected _, Some _ -> violation c "request %d rejected with a plan" cp.S.request.S.id
      | _, None -> violation c "request %d admitted without a plan" cp.S.request.S.id
      | _, Some p ->
        let n = Parqo.Query.n_relations cp.S.request.S.query in
        check c
          (Parqo.Bitset.cardinal (Parqo.Join_tree.relations p.Cm.tree) = n)
          "request %d: plan misses relations" cp.S.request.S.id)
    r.S.completions

(* simulated makespans of served plans, memoized by plan key *)
let makespan_of st =
  let memo = Hashtbl.create 64 in
  fun (cp : S.completion) ->
    match cp.S.plan with
    | None -> None
    | Some p ->
      let key = Parqo.Query.fingerprint cp.S.request.S.query ^ Parqo.Join_tree.key p.Cm.tree in
      Some
        (match Hashtbl.find_opt memo key with
        | Some m -> m
        | None ->
          let env = Parqo.Env.create ~machine:st.machine ~catalog:st.catalog ~query:cp.S.request.S.query () in
          let m = (Parqo.Simulator.run (Parqo.Task_graph.of_optree env p.Cm.optree)).Parqo.Simulator.makespan in
          Hashtbl.add memo key m;
          m)

type served = {
  completions : S.completion array;
  wall : float;  (** seconds inside [Server.run] *)
  g_minor : float;
  g_major : int;
}

(* serve a stream of [n] requests with ids from [first] in one
   [Server.run], as op 0 of the trace *)
let serve_stream srv st rng c ~first ~n =
  let reqs = stream st rng ~first ~n ~rate in
  let g0 = Gc.quick_stat () in
  let r, wall =
    Span.op 0 (fun () ->
        let r, wall = timed (fun () -> Span.with_ "server.run" (fun () -> S.run srv reqs)) in
        counted c (fun () -> Span.with_ "check" (fun () -> check_stream c r reqs));
        (r, wall))
  in
  let g1 = Gc.quick_stat () in
  {
    completions = r.S.completions;
    wall;
    g_minor = g1.Gc.minor_words -. g0.Gc.minor_words;
    g_major = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* the stream length of a run of [seconds] *)
let stream_length seconds = max 20 (int_of_float (requests_per_second *. seconds))

let ms a = Array.map (fun x -> x *. 1000.) a
let failed_of (s : served) =
  Array.fold_left
    (fun n (cp : S.completion) -> match cp.S.disposition with S.Rejected _ -> n + 1 | _ -> n)
    0 s.completions

(* the highest ladder rate whose p99 meets the limit with no shedding and
   no growing backlog (the last quarter's mean queue wait within the
   first quarter's plus half the deadline) *)
let max_rate st ~seed =
  let srv = server st (config ~seed) in
  let rng = Parqo.Rng.create (seed + 1) in
  let meets rate =
    let reqs = stream st rng ~first:0 ~n:ladder_requests ~rate in
    let r = S.run srv reqs in
    let cs = r.S.completions in
    let waits = Array.map (fun (cp : S.completion) -> cp.S.started -. cp.S.request.S.arrival) cs in
    let q = Array.length cs / 4 in
    let first = mean (Array.sub waits 0 q) and last = mean (Array.sub waits (Array.length cs - q) q) in
    r.S.stats.S.rejected = 0
    && quantile (Array.map latency cs) 0.99 <= latency_limit
    && last <= first +. (deadline /. 2.)
  in
  List.fold_left (fun best rate -> if meets rate then rate else best) 0. ladder

(* set-ups timed per run: a twentieth of a second of set-up, a second
   with the probes *)
let setup_repeats = 200

(* retries and epoch bumps on a replayable stream: no deadline and an
   expansion budget, so every request's path is a pure function of the
   seed and the counts repeat exactly *)
let replay st ~seed =
  let cfg =
    { (config ~seed) with S.default_deadline = None; budget = Parqo.Budget.expansions 3_000 }
  in
  let reqs =
    Array.map (fun (r : S.request) -> { r with S.deadline = None })
      (stream st (Parqo.Rng.create (seed + 2)) ~first:0 ~n:300 ~rate)
  in
  (S.run (server st cfg) reqs).S.stats

let run ctx =
  let st, setup_s, setup_raw = setup_median ~repeats:setup_repeats setup in
  let c = new_checks () in
  let srv = server st (config ~seed:ctx.seed) in
  let rng = Parqo.Rng.create ctx.seed in
  let header (s : served) =
    let lat = ms (Array.map latency s.completions) in
    let _, p = tail lat in
    [
      ("pool_width", "0");
      ("setup_repeats", string_of_int setup_repeats);
      ("library_seed", string_of_int library_seed);
      ("rate_qps", Printf.sprintf "%g" rate);
      ("deadline_ms", Printf.sprintf "%g" (deadline *. 1000.));
      ("samples", string_of_int (Array.length lat));
      ("tail_percentile", Printf.sprintf "%.2f" p);
      ("clock", "wall");
      ("raw_setup_s", Printf.sprintf "%.6f" setup_raw);
      ("stream_wall_s", Printf.sprintf "%.3f" s.wall);
    ]
  in
  if not ctx.trace then begin
    let s = serve_stream srv st rng c ~first:0 ~n:(stream_length ctx.seconds) in
    let lat = ms (Array.map latency s.completions) in
    let metrics =
      [
        ("setup_s", setup_s);
        ("op_p50_ms", median lat);
        ("op_tail_ms", fst (tail lat));
        ("ops_per_s", float_of_int (Array.length lat) /. s.wall);
        ("peak_heap_mb", peak_heap_mb ());
      ]
    in
    c.failed_ops <- c.failed_ops + failed_of s;
    result c ~attempted:(Array.length lat) ~metrics ~header:(header s)
  end
  else begin
    let n = stream_length (ctx.seconds /. 3.) in
    let untraced = serve_stream srv st rng c ~first:0 ~n in
    let s, spans, path =
      traced ctx c ~workload:"serve" (fun () -> serve_stream srv st rng c ~first:n ~n)
    in
    let cs = s.completions in
    let admitted =
      List.filter
        (fun (cp : S.completion) -> match cp.S.disposition with S.Rejected _ -> false | _ -> true)
        (Array.to_list cs)
    in
    (* milliseconds of [f] over the admitted requests it is defined on *)
    let field f = ms (Array.of_list (List.filter_map f admitted)) in
    let waits = field (fun cp -> Some (cp.S.started -. cp.S.request.S.arrival)) in
    let service = field (fun cp -> Some (cp.S.finished -. cp.S.started)) in
    let misses =
      field (fun cp -> if cp.S.cache_hit then None else Some (cp.S.finished -. cp.S.started))
    in
    let overshoot =
      field (fun cp ->
          let due = cp.S.request.S.arrival +. deadline in
          if cp.S.finished > due then Some (cp.S.finished -. due) else None)
    in
    let n_adm = float_of_int (max 1 (List.length admitted)) in
    let count p = float_of_int (List.length (List.filter p admitted)) in
    let per_op x = x /. float_of_int (max 1 (Array.length cs)) in
    (* a stream where every request hits the cache or none expires has
       no miss or overshoot to measure: those read 0.  Every other
       figure is defined on any stream with an admitted request, and a
       non-finite one fails the run *)
    let or0 v = if Float.is_nan v then 0. else v in
    let rp = replay st ~seed:ctx.seed in
    let untraced_lat = Array.map latency untraced.completions and traced_lat = Array.map latency cs in
    let metrics =
      [
        ("plan.makespan_geomean", geomean (Array.of_list (List.filter_map (makespan_of st) admitted)));
        ("server.queue_wait_ms.p50", median waits);
        ("server.queue_wait_ms.p99", quantile waits 0.99);
        ("server.service_ms.p50", median service);
        ("server.service_ms.p99", quantile service 0.99);
        ("server.cache_hit_ratio", count (fun cp -> cp.S.cache_hit) /. n_adm);
        ("server.miss_optimize_ms.p50", or0 (median misses));
        ("server.deadline_overshoot_ms.p99", or0 (quantile overshoot 0.99));
        ( "server.degraded_share",
          count (fun cp -> match cp.S.disposition with S.Degraded _ -> true | _ -> false) /. n_adm );
        ("server.max_rate_qps", max_rate st ~seed:ctx.seed);
        ("server.retries", float_of_int rp.S.retries);
        ("server.epoch_bumps", float_of_int rp.S.epoch_bumps);
        ("gc.minor_words_per_op", per_op s.g_minor);
        ("gc.major_collections_per_op", per_op (float_of_int s.g_major));
        ("trace.overhead", overhead ~untraced:untraced_lat ~traced:traced_lat);
        ("trace.spans_per_pass", float_of_int (spans_in_first spans 1));
      ]
    in
    c.failed_ops <- c.failed_ops + failed_of s + failed_of untraced;
    result c
      ~attempted:(Array.length cs + Array.length untraced.completions)
      ~metrics
      ~header:(header s @ [ ("trace_file", path) ])
  end

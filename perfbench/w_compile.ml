(* compile — the optimizer on a fixed mix of joins, one search per op.

   Closed loop, one client, one persistent domain pool (see [run] for
   its width).  The mix holds
   generated 4-relation chain, star and cycle queries (two of each, with
   statistics drawn from the seed), TPC-H q10 and q3 on a seeded
   scale-1 catalog — all left-deep, default metric, unbounded covers —
   and 3-relation bushy chain and cycle queries.  Every op is a fresh
   search, so cross-query caching cannot help: the DP levels, covers,
   cached costing and the pool do the work. *)

open Harness
module QG = Parqo.Query_gen
module Cm = Parqo.Costmodel

type entry = {
  label : string;
  catalog : Parqo.Catalog.t;
  query : Parqo.Query.t;
  shape : O.tree_shape;
}

type state = {
  mix : entry array;
  pool : Parqo.Domain_pool.t;
  datagen_ms : float;
}

let machine = Parqo.Machine.shared_nothing ~nodes:2 ()
let config = Parqo.Space.parallel_config machine

let setup ~width ~seed () =
  let rng = Parqo.Rng.create seed in
  let gen shape n =
    (* statistics vary with the seed inside a fixed band, so every seed
       draws the same kind of search *)
    let spec =
      {
        (QG.default_spec shape n) with
        QG.base_card = 800. +. Parqo.Rng.float rng 400.;
        card_skew = 0.4 +. Parqo.Rng.float rng 0.2;
        distinct_fraction = 0.08 +. Parqo.Rng.float rng 0.04;
      }
    in
    QG.generate spec
  in
  let left_deep =
    List.concat_map
      (fun shape ->
        List.init 2 (fun i ->
            let catalog, query = gen shape 4 in
            { label = Printf.sprintf "%s4-%d" (QG.shape_to_string shape) i; catalog; query; shape = O.Left_deep }))
      [ QG.Chain; QG.Star; QG.Cycle ]
  in
  let tpch, datagen_s = timed (fun () -> Parqo.Workloads.tpch ~seed ()) in
  let catalog = tpch.Parqo.Workloads.db.Parqo.Datagen.catalog in
  let tpch_entry label query = { label; catalog; query; shape = O.Left_deep } in
  let bushy =
    List.map
      (fun shape ->
        let catalog, query = gen shape 3 in
        { label = Printf.sprintf "bushy-%s3" (QG.shape_to_string shape); catalog; query; shape = O.Bushy })
      [ QG.Chain; QG.Cycle ]
  in
  let mix =
    Array.of_list
      (left_deep
      @ [ tpch_entry "tpch-q10" tpch.Parqo.Workloads.q10;
          tpch_entry "tpch-q3" tpch.Parqo.Workloads.q3 ]
      @ bushy)
  in
  let pool = Parqo.Domain_pool.create ~domains:width () in
  { mix; pool; datagen_ms = datagen_s *. 1000. }

(* A fresh search: a new environment, then the optimizer. *)
let search ?pool ~domains e =
  let env =
    Span.with_ "env.create" (fun () ->
        Parqo.Env.create ~machine ~catalog:e.catalog ~query:e.query ())
  in
  Span.with_ "optimizer.minimize_response_time" (fun () ->
      let o = O.minimize_response_time ~config ~shape:e.shape ~domains ?pool env in
      (* the levels are the search's own records: children of its span,
         laid back to back so they end where the search ends *)
      if Span.enabled () then
        ignore
          (List.fold_left
             (fun start (l : SS.level) ->
               let stop = start +. (l.SS.wall_ms /. 1000.) in
               Span.child ~name:(Printf.sprintf "podp.level%d" l.SS.level) ~start ~stop;
               stop)
             (Unix.gettimeofday () -. (level_ms o.O.stats /. 1000.))
             (SS.levels o.O.stats));
      (env, o))

let plan_of c label (o : O.outcome) =
  match o.O.best with
  | Some p -> Some p
  | None ->
    violation c "%s: no plan" label;
    None

let makespan env (p : Cm.eval) =
  (Parqo.Simulator.run (Parqo.Task_graph.of_optree env p.Cm.optree)).Parqo.Simulator.makespan

(* the per-layer metrics of one pass of the mix: each entry's outcome
   and search wall *)
let layer_metrics mix (pass : (O.outcome * float) array) =
  let of_shape shape =
    List.filteri (fun i _ -> mix.(i).shape = shape) (Array.to_list pass)
  in
  let ld = of_shape O.Left_deep and bushy = of_shape O.Bushy in
  let all = Array.to_list pass in
  let pool f =
    sum (fun ((o : O.outcome), _) -> float_of_int (f o.O.stats.SS.pool)) all
  in
  let bushy_generated =
    sum (fun ((o : O.outcome), _) -> float_of_int o.O.stats.SS.generated) bushy
  in
  podp_metrics ld
  @ [
      ( "podp.gave_up_share",
        float_of_int (List.length (List.filter (fun ((o : O.outcome), _) -> o.O.gave_up) all))
        /. float_of_int (Array.length pass) );
      ("pool.parallel_regions", pool (fun p -> p.Parqo.Domain_pool.parallel_runs));
      ("pool.parks", pool (fun p -> p.Parqo.Domain_pool.parks));
      ("pool.spawned", pool (fun p -> p.Parqo.Domain_pool.spawned));
      ("bushy.us_per_plan", sum (fun (_, dt) -> dt *. 1e6) bushy /. bushy_generated);
      ("bushy.generated", bushy_generated);
    ]

(* set-ups timed per run: about half a second of set-up *)
let setup_repeats = 20

(* The untraced runs search at width 1: on a 2-vCPU shared host the
   second domain bought no speed (115 ms median op either way when the
   host was quiet) but made the runs hostage to the host's steal time
   (233 against 150 ms in the same busy minute), which no bound can
   absorb.  The traced run searches at the full width, so the pool
   layer and the last level's share are measured where they exist. *)
let run ctx =
  let width = if ctx.trace then ctx.width else 1 in
  let st, setup_s, setup_raw =
    setup_median ~repeats:setup_repeats
      ~discard:(fun st -> Parqo.Domain_pool.shutdown st.pool)
      (setup ~width ~seed:ctx.seed)
  in
  let n = Array.length st.mix in
  let c = new_checks () in
  (* the width-1 reference, once: chosen plan key and response-time bits *)
  let reference =
    Array.map
      (fun e ->
        match (snd (search ~domains:1 e)).O.best with
        | Some p -> (Parqo.Join_tree.key p.Cm.tree, bits p.Cm.response_time)
        | None -> ("", 0L))
      st.mix
  in
  let makespans = Array.make n nan in
  (* the first pass of the current loop, for the per-layer metrics *)
  let pass = Array.make n None in
  let check_op e i env (o : O.outcome) =
    match plan_of c e.label o with
    | None -> ()
    | Some p ->
      let key, rt = reference.(i mod n) in
      check c (Parqo.Join_tree.key p.Cm.tree = key) "%s: plan differs from the width-1 run" e.label;
      check c (bits p.Cm.response_time = rt) "%s: response-time bits differ from the width-1 run" e.label;
      check c (not o.O.gave_up) "%s: unbounded search gave up" e.label;
      let recost =
        Span.with_ "costmodel.evaluate" (fun () ->
            Cm.evaluate ~required_order:(Cm.required_order env) env p.Cm.tree)
      in
      check c (bits recost.Cm.response_time = bits p.Cm.response_time)
        "%s: uncached re-cost differs" e.label;
      if i < n && Float.is_nan makespans.(i) then makespans.(i) <- makespan env p
  in
  (* the op's time is the search's CPU time alone; its checks run inside
     the op's root span but outside the timed call *)
  let one_op i =
    let e = st.mix.(i mod n) in
    counted c (fun () ->
        Span.op i (fun () ->
            let t0 = now () in
            let (env, o), dt = cpu_timed (fun () -> search ~pool:st.pool ~domains:width e) in
            let wall = now () -. t0 in
            check_op e i env o;
            (* the layer metrics set the search's wall against its
               levels' walls *)
            if i < n then pass.(i) <- Some (o, wall);
            dt))
  in
  let labels = Array.map (fun e -> e.label) st.mix in
  let header =
    [
      ("pool_width", string_of_int width);
      ("setup_repeats", string_of_int setup_repeats);
      ("mix", String.concat "," (Array.to_list labels));
    ]
  in
  let r =
    if not ctx.trace then begin
      let l = closed_loop ~seconds:ctx.seconds ~min_ops:n one_op in
      let metrics, h = closed_metrics ~entries:n ~setup:(setup_s, setup_raw) l in
      result c ~attempted:(Array.length l.times) ~metrics
        ~header:(header @ h @ [ ("p50_ms_by_query", per_entry_p50 labels (normalized l)) ])
    end
    else begin
      let untraced, l, spans, path =
        traced_loops ctx c ~workload:"compile" ~min_ops:n (fun i ->
            (* the traced half starts again at op 0: keep its first pass *)
            if i = 0 then Array.fill pass 0 n None;
            one_op i)
      in
      let metrics =
        ("plan.makespan_geomean", geomean makespans)
        :: layer_metrics st.mix (Array.map Option.get pass)
        @ [
            ("costmodel.evaluate_us", span_mean spans "costmodel.evaluate" ~scale:1e6);
            ("env.create_us", span_mean spans "env.create" ~scale:1e6);
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
  in
  Parqo.Domain_pool.shutdown st.pool;
  r

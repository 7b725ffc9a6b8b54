module Sim = Parqo.Simulator
module TG = Parqo.Task_graph
module J = Parqo.Join_tree
module M = Parqo.Join_method
module G = Parqo.Query_gen

let t name f = Alcotest.test_case name `Quick f

(* hand-built graphs exercise the scheduler in isolation *)
let graph ~n_resources stages =
  {
    TG.stages =
      Array.of_list
        (List.mapi
           (fun i (tasks, deps) ->
             {
               TG.stage_id = i;
               tasks =
                 List.mapi
                   (fun j demands ->
                     { TG.task_id = (i * 100) + j; label = Printf.sprintf "t%d_%d" i j; demands })
                   tasks;
               deps;
               op_root = None;
             })
           stages);
    n_resources;
    root_stage = 0;
  }

let single_task () =
  let g = graph ~n_resources:2 [ ([ [| 5.; 3. |] ], []) ] in
  let o = Sim.run g in
  (* a task works its resources concurrently: bottleneck = 5 *)
  Helpers.check_float "makespan = bottleneck" 5. o.Sim.makespan;
  Helpers.check_float "busy r0" 5. o.Sim.busy.(0);
  Helpers.check_float "busy r1" 3. o.Sim.busy.(1);
  Helpers.check_float "total work" 8. o.Sim.total_work

let independent_tasks_disjoint () =
  let g = graph ~n_resources:2 [ ([ [| 6.; 0. |]; [| 0.; 4. |] ], []) ] in
  let o = Sim.run g in
  Helpers.check_float "parallel = max" 6. o.Sim.makespan

let contended_tasks_share () =
  (* two tasks, same resource: processor sharing; both finish at 12 *)
  let g = graph ~n_resources:1 [ ([ [| 6. |]; [| 6. |] ], []) ] in
  let o = Sim.run g in
  Helpers.check_float "shared = sum" 12. o.Sim.makespan;
  Helpers.check_float "busy = sum" 12. o.Sim.busy.(0)

let asymmetric_sharing () =
  (* 2 and 6 units on one resource: the short task finishes at 4 (half
     rate), then the long one runs alone: 4 + 4 = 8 = total work *)
  let g = graph ~n_resources:1 [ ([ [| 2. |]; [| 6. |] ], []) ] in
  let o = Sim.run g in
  Helpers.check_float "work-conserving" 8. o.Sim.makespan

let dependencies_serialize () =
  (* stage 0 (root) depends on stage 1 *)
  let g =
    graph ~n_resources:1 [ ([ [| 3. |] ], [ 1 ]); ([ [| 4. |] ], []) ]
  in
  let o = Sim.run g in
  Helpers.check_float "sequential stages" 7. o.Sim.makespan;
  (* finish order: stage 1 then stage 0 *)
  (match o.Sim.stage_finish with
  | (s1, t1) :: (s0, t0) :: _ ->
    Alcotest.(check int) "dep first" 1 s1;
    Alcotest.(check int) "root last" 0 s0;
    Helpers.check_float "dep at 4" 4. t1;
    Helpers.check_float "root at 7" 7. t0
  | _ -> Alcotest.fail "expected two stage completions")

let diamond_dependencies () =
  (* root <- {a, b} on different resources: a and b run in parallel *)
  let g =
    graph ~n_resources:2
      [ ([ [| 1.; 0. |] ], [ 1; 2 ]); ([ [| 4.; 0. |] ], []); ([ [| 0.; 6. |] ], []) ]
  in
  let o = Sim.run g in
  Helpers.check_float "max(4,6)+1" 7. o.Sim.makespan

(* one task at a time takes the total work; sharing can only beat it *)
let within_total_work () =
  let g =
    graph ~n_resources:2
      [ ([ [| 6.; 0. |]; [| 0.; 4. |] ], [ 1 ]); ([ [| 2.; 2. |] ], []) ]
  in
  let c = Sim.run g in
  Alcotest.(check bool) "concurrent at least as fast" true
    (c.Sim.makespan <= TG.total_work g +. 1e-9)

(* the property of stretching (§5.2.1): scaling every demand by f scales
   the schedule by f and nothing else changes structurally *)
let stretching_property () =
  let demands = [ [| 3.; 1. |]; [| 2.; 5. |] ] in
  let g = graph ~n_resources:2 [ (demands, []) ] in
  let scaled =
    graph ~n_resources:2
      [ (List.map (Array.map (fun d -> d *. 2.5)) demands, []) ]
  in
  let o = Sim.run g and s = Sim.run scaled in
  Helpers.check_float ~eps:1e-6 "makespan scales" (o.Sim.makespan *. 2.5)
    s.Sim.makespan

let work_conservation_random () =
  let rng = Parqo.Rng.create 44 in
  for _ = 1 to 20 do
    let n_stages = 1 + Parqo.Rng.int rng 4 in
    let stages =
      List.init n_stages (fun i ->
          let tasks =
            List.init
              (1 + Parqo.Rng.int rng 3)
              (fun _ -> Array.init 3 (fun _ -> Parqo.Rng.float rng 10.))
          in
          (* stage i > 0 depends on a random earlier... root is 0, deps
             must avoid cycles: let stage i depend on some j > i *)
          let deps =
            if i < n_stages - 1 && Parqo.Rng.bool rng then [ i + 1 ] else []
          in
          (tasks, deps))
    in
    let g = graph ~n_resources:3 stages in
    let o = Sim.run g in
    Helpers.check_float ~eps:1e-6 "busy sums to work" o.Sim.total_work
      (Array.fold_left ( +. ) 0. o.Sim.busy);
    (* makespan lower bounds: busiest resource; upper: total work *)
    let busiest =
      Array.fold_left Float.max 0.
        (Array.mapi (fun _ b -> b) o.Sim.busy)
    in
    Alcotest.(check bool) "makespan >= busiest resource" true
      (o.Sim.makespan +. 1e-9 >= busiest);
    Alcotest.(check bool) "makespan <= total work" true
      (o.Sim.makespan <= o.Sim.total_work +. 1e-9)
  done

let plan_simulation_consistency () =
  (* simulating a plan agrees with its task graph's totals *)
  let catalog, query = G.generate (G.default_spec G.Chain 3) in
  let machine = Parqo.Machine.shared_nothing ~nodes:4 () in
  let env = Parqo.Env.create ~machine ~catalog ~query () in
  let tree =
    J.join M.Hash_join
      ~outer:(J.join M.Sort_merge ~outer:(J.access 0) ~inner:(J.access 1))
      ~inner:(J.access 2)
  in
  let o = Sim.simulate_plan env tree in
  Alcotest.(check bool) "positive makespan" true (o.Sim.makespan > 0.);
  let util = Sim.utilization o in
  Alcotest.(check bool) "utilization in (0,1]" true (util > 0. && util <= 1.)

let cloning_speeds_simulation () =
  let catalog, query = G.generate (G.default_spec G.Chain 3) in
  let machine = Parqo.Machine.shared_nothing ~nodes:4 () in
  let env = Parqo.Env.create ~machine ~catalog ~query () in
  let plan clone =
    J.join ~clone M.Hash_join
      ~outer:(J.join ~clone M.Hash_join ~outer:(J.access 0) ~inner:(J.access 1))
      ~inner:(J.access 2)
  in
  let seq = Sim.simulate_plan env (plan 1) in
  let par = Sim.simulate_plan env (plan 4) in
  Alcotest.(check bool) "cloned plan simulates faster" true
    (par.Sim.makespan < seq.Sim.makespan)

let timeline_rendering () =
  let g =
    graph ~n_resources:1 [ ([ [| 3. |] ], [ 1 ]); ([ [| 4. |] ], []) ]
  in
  let o = Sim.run g in
  let text = Sim.timeline ~width:20 o in
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "one row per stage" 2 (List.length lines);
  (* the dependency stage's row comes first (it starts first) *)
  Alcotest.(check bool) "dep row first" true
    (String.length (List.hd lines) > 0
    && String.sub (List.hd lines) 0 7 = "stage 1");
  (* starts recorded *)
  Alcotest.(check (list (pair int (float 1e-9)))) "starts"
    [ (0, 4.); (1, 0.) ]
    (List.sort compare o.Sim.stage_start)

let suite =
  ( "simulator",
    [
      t "timeline rendering" timeline_rendering;
      t "single task" single_task;
      t "independent disjoint" independent_tasks_disjoint;
      t "contended share" contended_tasks_share;
      t "asymmetric sharing" asymmetric_sharing;
      t "dependencies serialize" dependencies_serialize;
      t "diamond dependencies" diamond_dependencies;
      t "makespan within total work" within_total_work;
      t "stretching property" stretching_property;
      t "work conservation (random)" work_conservation_random;
      t "plan simulation" plan_simulation_consistency;
      t "cloning speeds simulation" cloning_speeds_simulation;
    ] )

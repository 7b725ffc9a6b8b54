(* The simulator's and the scheduler's outputs, pinned (cases in
   [Sim_pin_cases], table in [Sim_pins_data]).  Fault-injected runs —
   every recovery policy, re-plan splices included — must reproduce their
   pinned digest bit for bit.  Fault-free runs and multi-job schedules
   are held to 1e-9 of their run's scale (the larger of its makespan and
   total work, the vector's first two entries): the loop counts a demand
   as drained at one part in 1e12 of its job's work, so a value can move
   by that much of the run however small the value itself is. *)

let t name f = Alcotest.test_case name `Quick f

let pinned = lazy (Sim_pin_cases.all ())

let check_pins ~prefix () =
  let mine =
    List.filter
      (fun (name, _) -> String.starts_with ~prefix name)
      Sim_pins_data.table
  in
  Alcotest.(check bool) (prefix ^ " cases pinned") true (mine <> []);
  List.iter
    (fun (name, want) ->
      match (want, List.assoc_opt name (Lazy.force pinned)) with
      | _, None -> Alcotest.failf "%s: case no longer generated" name
      | Sim_pin_cases.Digest w, Some (Sim_pin_cases.Digest g) ->
        Alcotest.(check string) name w g
      | Sim_pin_cases.Values w, Some (Sim_pin_cases.Values g) ->
        Alcotest.(check int) (name ^ ": length") (Array.length w)
          (Array.length g);
        let tol = 1e-9 *. Float.max 1. (Float.max (Float.abs w.(0)) (Float.abs w.(1))) in
        Array.iteri
          (fun i x ->
            if not (Float.abs (g.(i) -. x) <= tol) then
              Alcotest.failf "%s: value %d moved from %h to %h" name i x g.(i))
          w
      | _ -> Alcotest.failf "%s: pin kind changed" name)
    mine

let suite =
  ( "pinned outputs",
    [
      t "fault-injected runs bit-identical" (check_pins ~prefix:"fault ");
      t "fault-free runs within 1e-9 of scale" (check_pins ~prefix:"sim ");
      t "multi-job schedules within 1e-9 of scale" (check_pins ~prefix:"sched ");
    ] )

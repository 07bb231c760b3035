(* Predictive data-race audit: the detector flags racy accesses from a
   single run even when that run serialized them safely, and stays quiet
   once a lock protects the counter.

   Run with: dune exec examples/race_audit.exe *)

let serial =
  Tml.Sched.make_raw ~name:"serial"
    ~pick_fn:(fun runnable _ -> runnable.(0))
    ~choose_fn:(fun _ -> 0)

let audit name program =
  Format.printf "== %s ==@." name;
  let r = Tml.Vm.run_program ~sched:serial program in
  Format.printf "observed run: %a, final state:" Tml.Vm.pp_outcome r.Tml.Vm.outcome;
  List.iter (fun (x, v) -> Format.printf " %s=%d" x v) r.Tml.Vm.final;
  Format.printf "@.";
  let report = Predict.Race.detect (Option.get r.Tml.Vm.exec) in
  Format.printf "%a@.@." Predict.Race.pp_report report;
  report

let () =
  print_endline "The serial schedule runs each thread to completion, so the observed";
  print_endline "run can never exhibit the race — prediction must find it anyway.\n";
  let racy = audit "unprotected counter" (Tml.Programs.racy_counter ~increments:2) in
  let locked = audit "lock-protected counter" (Tml.Programs.locked_counter ~increments:2) in
  let sketch = audit "naive flag mutual exclusion" Tml.Programs.dekker_sketch in
  assert (not (Predict.Race.race_free racy));
  assert (Predict.Race.race_free locked);
  assert (not (Predict.Race.race_free sketch));
  (* Show that the predicted race is real: exhaustive exploration finds
     a schedule that loses an update. *)
  print_endline "Confirming the prediction by exhaustive exploration:";
  let explored = Tml.Explore.all_program_runs (Tml.Programs.racy_counter ~increments:1) in
  let finals =
    List.map
      (fun (_, (r : Tml.Vm.run_result)) -> List.assoc "counter" r.Tml.Vm.final)
      explored.Tml.Explore.runs
    |> List.sort_uniq compare
  in
  Format.printf "  final counter values over all %d schedules: %s@."
    (List.length explored.Tml.Explore.runs)
    (String.concat ", " (List.map string_of_int finals));
  Format.printf "  (2 increments issued; a final value of 1 is the lost update)@."

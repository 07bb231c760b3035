(* Deadlock prediction: from a single successful execution of two bank
   transfers that take their locks in opposite orders, the lock-order
   graph predicts the deadlock; exhaustive exploration then produces the
   schedule that actually hangs — and shows the fix (consistent lock
   order) is deadlock-free under every schedule.

   Run with: dune exec examples/deadlock_hunt.exe *)

let serial =
  Tml.Sched.make_raw ~name:"serial"
    ~pick_fn:(fun runnable _ -> runnable.(0))
    ~choose_fn:(fun _ -> 0)

let () =
  print_endline "== opposite lock orders ==";
  print_endline (Option.get (Tml.Programs.source_of_name "bank-transfer"));
  let r = Tml.Vm.run_program ~sched:serial Tml.Programs.bank_transfer in
  Format.printf "observed (serial) run: %a@." Tml.Vm.pp_outcome r.Tml.Vm.outcome;
  let report = Predict.Lockgraph.analyze (Option.get r.Tml.Vm.exec) in
  Format.printf "%a@.@." Predict.Lockgraph.pp_report report;
  assert (not (Predict.Lockgraph.deadlock_free report));
  print_endline "Exhaustive exploration confirms the prediction:";
  let explored = Tml.Explore.all_program_runs Tml.Programs.bank_transfer in
  List.iter
    (fun (outcome, n) ->
      Format.printf "  %4d schedules end in: %a@." n Tml.Vm.pp_outcome outcome)
    (Tml.Explore.count_outcomes explored);
  let deadlocking =
    List.find_opt
      (fun (_, (res : Tml.Vm.run_result)) ->
        match res.Tml.Vm.outcome with Tml.Vm.Deadlocked _ -> true | _ -> false)
      explored.Tml.Explore.runs
  in
  (match deadlocking with
  | Some (script, _) ->
      Format.printf "  a deadlocking schedule: %a@.@." Tml.Sched.pp_script script
  | None -> print_endline "  (no deadlock found?!)");
  print_endline "== consistent lock order (the fix) ==";
  let r2 = Tml.Vm.run_program ~sched:serial Tml.Programs.bank_transfer_ordered in
  let report2 = Predict.Lockgraph.analyze (Option.get r2.Tml.Vm.exec) in
  Format.printf "%a@." Predict.Lockgraph.pp_report report2;
  assert (Predict.Lockgraph.deadlock_free report2);
  let explored2 = Tml.Explore.all_program_runs Tml.Programs.bank_transfer_ordered in
  Format.printf "and indeed all %d schedules complete.@."
    (List.length explored2.Tml.Explore.runs)

(* Predictive atomicity audit: a bank account whose balance check and
   withdrawal sit in ONE sync block is serializable; splitting them into
   two blocks — or leaving a remote access unlocked — is flagged from a
   single serial run, before any bad interleaving ever executes.

   Run with: dune exec examples/atomicity_audit.exe *)

let serial =
  Tml.Sched.make_raw ~name:"serial"
    ~pick_fn:(fun runnable _ -> runnable.(0))
    ~choose_fn:(fun _ -> 0)

let audit name src =
  Format.printf "== %s ==@." name;
  let program = Tml.Parser.parse_program src in
  let r = Tml.Vm.run_program ~sched:serial program in
  Format.printf "serial run: %a, balance = %d@." Tml.Vm.pp_outcome r.Tml.Vm.outcome
    (List.assoc "balance" r.Tml.Vm.final);
  let report = Predict.Atomicity.analyze (Option.get r.Tml.Vm.exec) in
  Format.printf "%a@.@." Predict.Atomicity.pp_report report;
  report

let () =
  let atomic =
    audit "withdrawal inside one sync block"
      {| shared balance = 100;
         thread alice { sync (acct) { if (balance >= 60) { balance = balance - 60; } } }
         thread bob   { sync (acct) { if (balance >= 60) { balance = balance - 60; } } } |}
  in
  assert (Predict.Atomicity.serializable atomic);

  let racy_deposit =
    audit "audit thread reads balance without the lock"
      {| shared balance = 100, snapshot = 0;
         thread alice { sync (acct) { balance = balance - 60; balance = balance + 1; } }
         thread auditor { snapshot = balance; } |}
  in
  assert (not (Predict.Atomicity.serializable racy_deposit));
  print_endline
    "The auditor can observe the dirty intermediate balance (W-R-W): predicted\n\
     from the serial run, where the auditor actually ran after everything.";

  (* Races and atomicity are different lenses on the same causality: the
     unlocked snapshot is also a data race. *)
  let program =
    Tml.Parser.parse_program
      {| shared balance = 100, snapshot = 0;
         thread alice { sync (acct) { balance = balance - 60; balance = balance + 1; } }
         thread auditor { snapshot = balance; } |}
  in
  let r = Tml.Vm.run_program ~sched:serial program in
  let races = Predict.Race.detect (Option.get r.Tml.Vm.exec) in
  Format.printf "@.and the same access is a data race: %s@."
    (String.concat ", " races.Predict.Race.racy_vars)

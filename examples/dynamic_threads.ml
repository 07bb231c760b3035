(* Dynamic thread creation (paper, Section 2: the technique "can be
   easily extended to systems consisting of a variable number of
   threads").

   Two layers reproduce the extension:

   - at the language level, TML's [spawn]/[join] desugar onto the fixed
     thread pool with happens-before handshakes over dummy
     synchronization variables, so all the fixed-dimension machinery
     (Algorithm A, the observer, prediction) applies unchanged;

   - at the clock level, [Mvc.Dynamic] runs Algorithm A over sparse
     vector clocks for genuinely unbounded thread populations.

   Run with: dune exec examples/dynamic_threads.exe *)

let serial =
  Tml.Sched.make_raw ~name:"serial"
    ~pick_fn:(fun runnable _ -> runnable.(0))
    ~choose_fn:(fun _ -> 0)

let () =
  print_endline "== fork/join over the fixed pool ==";
  let program = Tml.Programs.fork_join ~workers:3 in
  List.iter
    (fun seed ->
      let r = Tml.Vm.run_program ~sched:(Tml.Sched.random ~seed) program in
      Printf.printf "  seed %d: %s, total = %d\n" seed
        (Format.asprintf "%a" Tml.Vm.pp_outcome r.Tml.Vm.outcome)
        (List.assoc "total" r.Tml.Vm.final))
    [ 1; 2; 3 ];
  print_endline "  (1*1 + 2*2 + 3*3 = 14 under every schedule: join orders the sum)";

  print_endline "\n== spawning does not synchronize later accesses ==";
  let r = Tml.Vm.run_program ~sched:serial Tml.Programs.spawn_unsynchronized in
  let report = Predict.Race.detect (Option.get r.Tml.Vm.exec) in
  Format.printf "%a@." Predict.Race.pp_report report;
  assert (report.Predict.Race.racy_vars = [ "cell" ]);
  print_endline "  (the pre-spawn write is ordered; only the post-spawn write races)";

  print_endline "\n== sparse clocks for an unbounded population ==";
  (* A root thread forks a worker per request; ids never declared
     anywhere up front. *)
  let algo = Mvc.Dynamic.create ~relevance:Mvc.Relevance.all_writes in
  let emit tid x v =
    match Mvc.Dynamic.process algo tid (Trace.Event.Write (x, v)) with
    | Some clock -> Format.printf "  T%d writes %s=%d at %a@." tid x v Dvclock.pp clock
    | None -> ()
  in
  emit 0 "work" 1;
  Mvc.Dynamic.spawn algo ~parent:0 ~child:17;
  emit 17 "result17" 10;
  Mvc.Dynamic.spawn algo ~parent:0 ~child:99;
  emit 99 "result99" 20;
  Mvc.Dynamic.join algo ~parent:0 ~child:17;
  emit 0 "work" 2;
  Format.printf "  threads seen: %s@."
    (String.concat ", "
       (List.map string_of_int (Mvc.Dynamic.threads_seen algo)));
  let c17 = Mvc.Dynamic.thread_clock algo 17 in
  let c99 = Mvc.Dynamic.thread_clock algo 99 in
  Format.printf "  workers 17 and 99 are concurrent: %b@." (Dvclock.concurrent c17 c99)

(* The observer side in online mode: messages arrive out of order (as
   over JMPaX's sockets), the online observer buffers them and sweeps
   the lattice level by level as the events become available, and the
   verdict is identical to in-order delivery. Also demonstrates the
   Section 3.2 message-passing interpretation agreeing with Algorithm A
   on the same run.

   Run with: dune exec examples/online_observer.exe *)

let () =
  let program = Tml.Programs.xyz in
  let spec = Pastltl.Formula.xyz_spec in
  let vars = Pastltl.Formula.vars spec in
  let relevance = Mvc.Relevance.writes_of_vars vars in
  let r =
    Tml.Vm.run_program ~relevance
      ~sched:(Tml.Sched.of_script Tml.Programs.xyz_observed)
      program
  in
  let messages = r.Tml.Vm.messages in
  Format.printf "emitted:   %a@."
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "  ")
       Trace.Message.pp)
    messages;
  let scrambled = Observer.Channel.shuffle ~seed:11 messages in
  Format.printf "delivered: %a@.@."
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "  ")
       Trace.Message.pp)
    scrambled;
  (* Feed one by one; watch the frontier climb as gaps close. *)
  let online = Predict.Online.create ~nthreads:2 ~init:program.Tml.Ast.shared ~spec () in
  List.iter
    (fun m ->
      Predict.Online.feed online m;
      Format.printf "received %a -> level %d (buffered %d, out of order %d)@."
        Trace.Message.pp m (Predict.Online.level online) (Predict.Online.buffered online)
        (Predict.Online.out_of_order online))
    scrambled;
  Predict.Online.finish online;
  let gc = Predict.Online.gc_stats online in
  Format.printf "@.online verdict: %s at level %d (%d cuts retired, peak %d cuts)@.@."
    (if Predict.Online.violated online then "VIOLATION PREDICTED" else "no violation")
    (Predict.Online.level online) gc.Predict.Online.retired_cuts
    gc.Predict.Online.peak_frontier_cuts;
  (* Section 3.2: the distributed interpretation reproduces Algorithm A
     message for message. *)
  (match
     Dsim.Simulate.compare_with_algorithm ~relevance (Option.get r.Tml.Vm.exec)
   with
  | Ok stats ->
      Format.printf
        "distributed interpretation agrees with Algorithm A: %d protocol messages, \
         %d hidden (one per read)@."
        stats.Dsim.Simulate.packets stats.Dsim.Simulate.hidden
  | Error _ -> print_endline "distributed interpretation DIVERGED (bug)");
  assert (Predict.Online.violated online)

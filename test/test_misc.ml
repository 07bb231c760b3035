(* Coverage sweep: API corners not central enough for the dedicated
   suites — printers, error paths, small accessors, and a handful of
   cross-module consistency checks. *)

open Trace

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  n = 0 || at 0

(* {1 Printers} *)

let test_printers_nonempty () =
  let checks =
    [ ("tid", Format.asprintf "%a" Types.pp_tid 3, "T3");
      ("vclock", Vclock.to_string (Vclock.of_list [ 1; 2 ]), "(1,2)");
      ("dvclock", Dvclock.to_string (Dvclock.of_list [ (1, 2) ]), "{1:2}");
      ( "event",
        Format.asprintf "%a" Event.pp (Event.write ~eid:4 ~tid:1 ~pos:2 ~var:"x" ~value:9),
        "e4[T1#2 write x=9]" );
      ( "message",
        Format.asprintf "%a" Message.pp
          (Message.make ~eid:0 ~tid:0 ~var:"x" ~value:1 ~mvc:(Vclock.of_list [ 1 ])),
        "<x=1, T0, (1)>" ) ]
  in
  List.iter (fun (name, got, expected) -> Alcotest.(check string) name expected got) checks

let test_exec_pp () =
  let b = Exec.builder ~nthreads:1 ~init:[ ("x", 1) ] in
  ignore (Exec.add_write b 0 "x" 2);
  let s = Format.asprintf "%a" Exec.pp (Exec.freeze b) in
  Alcotest.(check bool) "mentions the write" true (contains ~needle:"write x=2" s)

let test_outcome_pp () =
  let cases =
    [ (Tml.Vm.Completed, "completed");
      (Tml.Vm.Deadlocked [ 0; 2 ], "deadlocked [T0,T2]");
      (Tml.Vm.Runtime_error { tid = 1; message = "boom" }, "runtime error in T1: boom");
      (Tml.Vm.Fuel_exhausted, "fuel exhausted") ]
  in
  List.iter
    (fun (o, expected) ->
      Alcotest.(check string) expected expected (Format.asprintf "%a" Tml.Vm.pp_outcome o))
    cases

let test_bytecode_pp () =
  let image = Tml.Compile.compile Tml.Programs.xyz in
  let s = Format.asprintf "%a" Tml.Bytecode.pp_image image in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains ~needle s))
    [ "loadg x"; "storeg y"; "halt"; "thread t1" ]

let test_sched_pp () =
  Alcotest.(check string) "script" "[P0 C2 P1]"
    (Format.asprintf "%a" Tml.Sched.pp_script Tml.Sched.[ Pick 0; Choice 2; Pick 1 ])

let test_formula_pp_roundtrip_specials () =
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Pastltl.Formula.to_string f)
        true
        (Pastltl.Formula.equal f (Pastltl.Fparser.roundtrip f)))
    [ Pastltl.Formula.True; Pastltl.Formula.False; Pastltl.Formula.landing_spec;
      Pastltl.Formula.xyz_spec;
      Pastltl.Patterns.response_guard
        ~request:(Pastltl.Formula.cmp Pastltl.Predicate.Eq (Pastltl.Predicate.Var "r")
                    (Pastltl.Predicate.Const 1))
        ~forbidden:Pastltl.Formula.False ]

(* {1 Error paths} *)

let test_sched_replay_mismatch () =
  let sched = Tml.Sched.of_script Tml.Sched.[ Choice 0 ] in
  (match Tml.Sched.pick sched ~runnable:[| 0 |] ~count:1 with
  | exception Tml.Sched.Replay_mismatch _ -> ()
  | _ -> Alcotest.fail "pick against a choice should mismatch");
  let sched = Tml.Sched.of_script [] in
  match Tml.Sched.choose sched 2 with
  | exception Tml.Sched.Replay_mismatch _ -> ()
  | _ -> Alcotest.fail "exhausted script should mismatch"

let test_sched_validation () =
  let sched = Tml.Sched.round_robin () in
  (match Tml.Sched.pick sched ~runnable:[||] ~count:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty runnable");
  match Tml.Sched.choose sched 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero branches"

let test_random_biased_validation () =
  match Tml.Sched.random_biased ~seed:1 ~stickiness:(-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative stickiness"

let test_programs_validation () =
  let expect f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect (fun () -> Tml.Programs.racy_counter ~increments:0);
  expect (fun () -> Tml.Programs.landing_full ~rounds:0);
  expect (fun () -> Tml.Programs.pipeline ~stages:1);
  expect (fun () -> Tml.Programs.independent ~threads:0 ~writes:1);
  expect (fun () -> Tml.Programs.fork_join ~workers:0);
  expect (fun () -> Tml.Programs.philosophers ~n:1)

let test_fparser_error_message () =
  match Pastltl.Fparser.parse "x ==" with
  | exception Pastltl.Fparser.Error msg ->
      Alcotest.(check bool) "nonempty message" true (String.length msg > 0)
  | f -> Alcotest.failf "parsed %s" (Pastltl.Formula.to_string f)

(* {1 Small accessors and invariants} *)

let test_vclock_hash_consistent () =
  let a = Vclock.of_list [ 1; 2; 3 ] in
  let b = Vclock.of_list [ 1; 2; 3 ] in
  Alcotest.(check int) "equal clocks hash equal" (Vclock.hash a) (Vclock.hash b)

let test_message_seq_and_order () =
  let m1 = Message.make ~eid:0 ~tid:0 ~var:"x" ~value:1 ~mvc:(Vclock.of_list [ 1; 0 ]) in
  let m2 = Message.make ~eid:1 ~tid:0 ~var:"x" ~value:2 ~mvc:(Vclock.of_list [ 2; 0 ]) in
  Alcotest.(check int) "seq of first" 1 (Message.seq m1);
  Alcotest.(check int) "seq of second" 2 (Message.seq m2);
  Alcotest.(check bool) "program order" true (Message.causally_precedes m1 m2);
  Alcotest.(check bool) "no back edge" false (Message.causally_precedes m2 m1);
  Alcotest.(check bool) "not self-preceding" false (Message.causally_precedes m1 m1)

let test_ast_helpers () =
  let s = Tml.Parser.parse_stmt "x = y + 1; if (z) { q = 0; }" in
  Alcotest.(check (list string)) "stmt vars" [ "q"; "x"; "y"; "z" ] (Tml.Ast.stmt_vars s);
  Alcotest.(check bool) "size counts nodes" true (Tml.Ast.stmt_size s >= 3);
  Alcotest.(check (list string)) "expr vars" [ "a"; "b" ]
    (Tml.Ast.expr_vars (Tml.Parser.parse_expr "a * 2 + b"))

let test_explore_count_outcomes () =
  let explored = Tml.Explore.all_program_runs Tml.Programs.bank_transfer in
  let counts = Tml.Explore.count_outcomes explored in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 counts in
  Alcotest.(check int) "counts partition the runs" (List.length explored.Tml.Explore.runs)
    total;
  (* most frequent first *)
  let rec sorted = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b && sorted rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "sorted by frequency" true (sorted counts)

let test_monitor_width () =
  let c = Pastltl.Monitor.compile Pastltl.Formula.xyz_spec in
  Alcotest.(check bool) "width = distinct subformulas" true
    (Pastltl.Monitor.width c
    = List.length (Pastltl.Formula.subformulas Pastltl.Formula.xyz_spec));
  Alcotest.(check bool) "formula accessor" true
    (Pastltl.Formula.equal (Pastltl.Monitor.formula c) Pastltl.Formula.xyz_spec)

let test_config_builders () =
  let c = Jmpax.Config.default () in
  let c2 = Jmpax.Config.with_seed 7 c in
  Alcotest.(check string) "seeded scheduler" "random(seed=7)"
    (Tml.Sched.name c2.Jmpax.Config.sched);
  let c3 = Jmpax.Config.with_channel (Jmpax.Config.Shuffled 3) c2 in
  Alcotest.(check bool) "channel set" true
    (c3.Jmpax.Config.channel = Jmpax.Config.Shuffled 3)

let test_instrument_sync_vars_wait_notify () =
  let p =
    Tml.Parser.parse_program {| thread t { wait c; } thread u { notify c; } |}
  in
  Alcotest.(check (list string)) "notify var listed"
    [ Types.notify_var "c" ]
    (Tml.Instrument.sync_variables (Tml.Compile.compile p))

let test_liveness_pp () =
  let f =
    Predict.Liveness.FUntil
      ( Predict.Liveness.FTrue,
        Predict.Liveness.FAtom
          (Pastltl.Predicate.make Pastltl.Predicate.Eq (Pastltl.Predicate.Var "x")
             (Pastltl.Predicate.Const 1)) )
  in
  Alcotest.(check string) "printing" "(true U x == 1)"
    (Format.asprintf "%a" Predict.Liveness.pp_fformula f)

let test_typecheck_error_rendering () =
  let p = Tml.Parser.parse_program "shared x = 0; thread t { y = 1; }" in
  match Tml.Typecheck.check p with
  | Error [ e ] ->
      Alcotest.(check string) "message names thread and variable"
        "thread t: assignment to undeclared variable y"
        (Tml.Typecheck.error_to_string e)
  | _ -> Alcotest.fail "expected exactly one error"

(* {1 Cross-module consistency} *)

let test_fsm_on_lattice_runs () =
  (* Checking the lattice runs with the FSM gives the same violating-run
     count as the direct semantics. *)
  let relevance = Mvc.Relevance.writes_of_vars [ "x"; "y"; "z" ] in
  let r =
    Tml.Vm.run_program ~relevance
      ~sched:(Tml.Sched.of_script Tml.Programs.xyz_observed)
      Tml.Programs.xyz
  in
  let comp =
    Observer.Computation.of_messages_exn ~nthreads:2 ~init:Tml.Programs.xyz.Tml.Ast.shared
      r.Tml.Vm.messages
  in
  let lattice = Observer.Lattice.build comp in
  let fsm = Pastltl.Fsm.minimize (Pastltl.Fsm.synthesize Pastltl.Formula.xyz_spec) in
  let violating_by_fsm =
    Observer.Lattice.runs lattice
    |> List.filter (fun run ->
           List.exists not (Pastltl.Fsm.run fsm (Observer.Lattice.states_of_run lattice run)))
    |> List.length
  in
  Alcotest.(check int) "FSM agrees: 1 violating run of 3" 1 violating_by_fsm

let test_dynamic_threads_seen_monotone () =
  let algo = Mvc.Dynamic.create ~relevance:Mvc.Relevance.all_writes in
  ignore (Mvc.Dynamic.process algo 5 (Event.Write ("x", 1)));
  Alcotest.(check (list int)) "implicit root" [ 5 ] (Mvc.Dynamic.threads_seen algo);
  Alcotest.(check int) "relevant count" 1 (Mvc.Dynamic.relevant_count algo 5);
  Alcotest.(check int) "unknown thread count" 0 (Mvc.Dynamic.relevant_count algo 9)

let () =
  Alcotest.run "misc"
    [ ( "printers",
        [ Alcotest.test_case "core printers" `Quick test_printers_nonempty;
          Alcotest.test_case "exec" `Quick test_exec_pp;
          Alcotest.test_case "outcomes" `Quick test_outcome_pp;
          Alcotest.test_case "bytecode" `Quick test_bytecode_pp;
          Alcotest.test_case "scripts" `Quick test_sched_pp;
          Alcotest.test_case "formula roundtrips" `Quick test_formula_pp_roundtrip_specials;
          Alcotest.test_case "liveness formulas" `Quick test_liveness_pp ] );
      ( "errors",
        [ Alcotest.test_case "replay mismatch" `Quick test_sched_replay_mismatch;
          Alcotest.test_case "scheduler validation" `Quick test_sched_validation;
          Alcotest.test_case "biased validation" `Quick test_random_biased_validation;
          Alcotest.test_case "program constructors" `Quick test_programs_validation;
          Alcotest.test_case "fparser messages" `Quick test_fparser_error_message;
          Alcotest.test_case "typecheck rendering" `Quick test_typecheck_error_rendering ] );
      ( "accessors",
        [ Alcotest.test_case "vclock hash" `Quick test_vclock_hash_consistent;
          Alcotest.test_case "message seq/order" `Quick test_message_seq_and_order;
          Alcotest.test_case "ast helpers" `Quick test_ast_helpers;
          Alcotest.test_case "explore outcomes" `Quick test_explore_count_outcomes;
          Alcotest.test_case "monitor width" `Quick test_monitor_width;
          Alcotest.test_case "config builders" `Quick test_config_builders;
          Alcotest.test_case "sync variables" `Quick test_instrument_sync_vars_wait_notify ] );
      ( "consistency",
        [ Alcotest.test_case "FSM on lattice runs" `Quick test_fsm_on_lattice_runs;
          Alcotest.test_case "dynamic threads seen" `Quick
            test_dynamic_threads_seen_monotone ] ) ]

(* Tests for the predictive analyses: the level-by-level analyzer
   (cross-checked against explicit run enumeration), counterexample
   extraction, race detection, lock-graph deadlock prediction, and
   lasso-based liveness checking. *)

open Trace

let observe program script vars =
  let relevance = Mvc.Relevance.writes_of_vars vars in
  let r = Tml.Vm.run_program ~relevance ~sched:(Tml.Sched.of_script script) program in
  let init = List.filter (fun (x, _) -> List.mem x vars) program.Tml.Ast.shared in
  Observer.Computation.of_messages_exn
    ~nthreads:(List.length program.Tml.Ast.threads)
    ~init r.Tml.Vm.messages

let landing_comp () =
  observe Tml.Programs.landing_bounded Tml.Programs.landing_observed
    [ "landing"; "approved"; "radio" ]

let xyz_comp () = observe Tml.Programs.xyz Tml.Programs.xyz_observed [ "x"; "y"; "z" ]

(* The lattice sweep over a computation's messages, thread by thread. *)
let analyze ~spec comp =
  Predict.Analyzer.sweep ~spec ~nthreads:(Observer.Computation.nthreads comp)
    ~init:(Pastltl.State.to_list (Observer.Computation.init_state comp))
    (Observer.Computation.messages comp)

(* {1 Analyzer on the paper's examples} *)

let test_landing_prediction () =
  let report = analyze ~spec:Pastltl.Formula.landing_spec (landing_comp ()) in
  Alcotest.(check bool) "violation predicted" true (Predict.Analyzer.violated report);
  Alcotest.(check int) "4 levels" 4 report.Predict.Analyzer.stats.Predict.Analyzer.levels;
  Alcotest.(check int) "6 cuts visited (Fig. 5)" 6
    report.Predict.Analyzer.stats.Predict.Analyzer.cuts_visited

let test_landing_observed_run_is_clean () =
  (* The observed interleaving satisfies the property: the baseline sees
     nothing (the paper's motivating scenario). *)
  let r =
    Tml.Vm.run_program
      ~relevance:(Mvc.Relevance.writes_of_vars [ "landing"; "approved"; "radio" ])
      ~sched:(Tml.Sched.of_script Tml.Programs.landing_observed)
      Tml.Programs.landing_bounded
  in
  Alcotest.(check bool) "baseline misses" true
    (Predict.Analyzer.observed_run_verdict ~spec:Pastltl.Formula.landing_spec
       ~init:Tml.Programs.landing_bounded.Tml.Ast.shared r.Tml.Vm.messages)

let test_xyz_prediction () =
  let report = analyze ~spec:Pastltl.Formula.xyz_spec (xyz_comp ()) in
  Alcotest.(check bool) "violation predicted" true (Predict.Analyzer.violated report);
  Alcotest.(check int) "7 cuts visited (Fig. 6)" 7
    report.Predict.Analyzer.stats.Predict.Analyzer.cuts_visited

let test_true_spec_never_violated () =
  let report = analyze ~spec:Pastltl.Formula.True (xyz_comp ()) in
  Alcotest.(check bool) "true is safe" false (Predict.Analyzer.violated report)

let test_false_spec_violated_at_bottom () =
  let report = analyze ~spec:Pastltl.Formula.False (xyz_comp ()) in
  match report.Predict.Analyzer.violations with
  | v :: _ -> Alcotest.(check int) "level 0" 0 v.Predict.Analyzer.level
  | [] -> Alcotest.fail "false must be violated"

(* {1 Counterexamples} *)

let test_landing_counterexamples () =
  let report =
    Predict.Counterexample.check ~spec:Pastltl.Formula.landing_spec (landing_comp ())
  in
  Alcotest.(check int) "3 runs" 3 report.Predict.Counterexample.total_runs;
  Alcotest.(check int) "2 violating runs (Example 1)" 2
    (List.length report.Predict.Counterexample.violating)

let test_xyz_counterexamples () =
  let report = Predict.Counterexample.check ~spec:Pastltl.Formula.xyz_spec (xyz_comp ()) in
  Alcotest.(check int) "3 runs" 3 report.Predict.Counterexample.total_runs;
  Alcotest.(check int) "1 violating run (Example 2)" 1
    (List.length report.Predict.Counterexample.violating);
  let ce = List.hd report.Predict.Counterexample.violating in
  Alcotest.(check int) "violation at the top state" 4
    ce.Predict.Counterexample.violation_index;
  (* The violating run is e1 (x=0), e3 (y=1), e2 (z=1), e4 (x=1). *)
  let vars_of run = List.map (fun (m : Message.t) -> m.var) run in
  Alcotest.(check (list string)) "violating order" [ "x"; "y"; "z"; "x" ]
    (vars_of ce.Predict.Counterexample.run)

(* {1 Analyzer = run enumeration (the paper's soundness/completeness)} *)

let specs_pool =
  [ Pastltl.Formula.landing_spec;
    Pastltl.Formula.xyz_spec;
    Pastltl.Fparser.parse "always counter <= 1";
    Pastltl.Fparser.parse "once x == 0 ==> y <= z + 1";
    Pastltl.Fparser.parse "[x == 0, y == 1)";
    Pastltl.Fparser.parse "(prev y == 0) or y == 0";
    Pastltl.Fparser.parse "start z == 1 ==> once x == 0" ]

let computations_pool () =
  let rr_obs program vars =
    let relevance = Mvc.Relevance.writes_of_vars vars in
    let r = Tml.Vm.run_program ~relevance ~sched:(Tml.Sched.round_robin ()) program in
    let init = List.filter (fun (x, _) -> List.mem x vars) program.Tml.Ast.shared in
    Observer.Computation.of_messages_exn
      ~nthreads:(List.length program.Tml.Ast.threads)
      ~init r.Tml.Vm.messages
  in
  [ landing_comp ();
    xyz_comp ();
    rr_obs (Tml.Programs.racy_counter ~increments:2) [ "counter" ];
    rr_obs Tml.Programs.dekker_sketch [ "counter"; "flag0"; "flag1" ];
    rr_obs (Tml.Programs.independent ~threads:2 ~writes:2) [ "v0"; "v1" ];
    rr_obs (Tml.Programs.independent ~threads:3 ~writes:1) [ "v0"; "v1"; "v2" ] ]

let test_analyzer_equals_enumeration () =
  List.iter
    (fun comp ->
      List.iter
        (fun spec ->
          let predicted =
            Predict.Analyzer.violated (analyze ~spec comp)
          in
          let enumerated =
            Predict.Counterexample.violated (Predict.Counterexample.check ~spec comp)
          in
          Alcotest.(check bool)
            (Format.asprintf "agree on %a" Pastltl.Formula.pp spec)
            enumerated predicted)
        specs_pool)
    (computations_pool ())

let test_analyzer_frontier_is_bounded () =
  (* The analyzer keeps at most one level: its frontier width must equal
     the lattice's widest level, never the whole lattice. *)
  List.iter
    (fun comp ->
      let report = analyze ~spec:Pastltl.Formula.True comp in
      let lattice = Observer.Lattice.build comp in
      Alcotest.(check int) "frontier = lattice max width"
        (Observer.Lattice.max_width lattice)
        report.Predict.Analyzer.stats.Predict.Analyzer.max_frontier_cuts;
      Alcotest.(check int) "visits every cut once"
        (Observer.Lattice.node_count lattice)
        report.Predict.Analyzer.stats.Predict.Analyzer.cuts_visited)
    (computations_pool ())

(* {1 Race detection} *)

let exec_of program sched =
  let r = Tml.Vm.run_program ~sched program in
  Option.get r.Tml.Vm.exec

(* Runs threads to completion one after another — the schedule least
   likely to exhibit blocking, hence the interesting one for showing
   that prediction does not need the bad interleaving to happen. *)
let serial_sched () =
  Tml.Sched.make_raw ~name:"serial"
    ~pick_fn:(fun runnable _ -> runnable.(0))
    ~choose_fn:(fun _ -> 0)

let test_racy_counter_races () =
  let report =
    Predict.Race.detect (exec_of (Tml.Programs.racy_counter ~increments:2) (Tml.Sched.round_robin ()))
  in
  Alcotest.(check (list string)) "counter is racy" [ "counter" ]
    report.Predict.Race.racy_vars;
  Alcotest.(check bool) "pairs reported" true (report.Predict.Race.races <> [])

let test_locked_counter_race_free () =
  let report =
    Predict.Race.detect
      (exec_of (Tml.Programs.locked_counter ~increments:2) (Tml.Sched.round_robin ()))
  in
  Alcotest.(check bool) "race free" true (Predict.Race.race_free report)

let test_race_prediction_from_serial_schedule () =
  (* Even a fully serial observed run (thread 0 first, then thread 1)
     must predict the race: the accesses are causally unordered. *)
  let program = Tml.Programs.racy_counter ~increments:1 in
  let image = Tml.Instrument.instrument_program program in
  let serial =
    Tml.Sched.make_raw ~name:"serial"
      ~pick_fn:(fun runnable _ -> runnable.(0))
      ~choose_fn:(fun _ -> 0)
  in
  let r = Tml.Vm.run_image ~sched:serial image in
  let report = Predict.Race.detect (Option.get r.Tml.Vm.exec) in
  Alcotest.(check (list string)) "race predicted from serial run" [ "counter" ]
    report.Predict.Race.racy_vars

let test_dekker_sketch_races () =
  let report = Predict.Race.detect (exec_of Tml.Programs.dekker_sketch (Tml.Sched.round_robin ())) in
  Alcotest.(check bool) "flags are racy" true
    (List.mem "flag0" report.Predict.Race.racy_vars
    || List.mem "flag1" report.Predict.Race.racy_vars)

let test_read_read_not_a_race () =
  let program =
    Tml.Parser.parse_program
      {| shared x = 1, a = 0, b = 0; thread t0 { a = x; } thread t1 { b = x; } |}
  in
  let report = Predict.Race.detect (exec_of program (Tml.Sched.round_robin ())) in
  Alcotest.(check bool) "concurrent reads of x are fine" false
    (List.mem "x" report.Predict.Race.racy_vars);
  (* a and b are written by one thread each: no race either. *)
  Alcotest.(check bool) "single-writer vars fine" true (Predict.Race.race_free report)

let test_same_thread_no_race () =
  let program =
    Tml.Parser.parse_program {| shared x = 0; thread t { x = 1; x = 2; } |}
  in
  let report = Predict.Race.detect (exec_of program (Tml.Sched.round_robin ())) in
  Alcotest.(check bool) "program order is not a race" true (Predict.Race.race_free report)

(* {1 Lock-order graph} *)

let test_bank_transfer_cycle () =
  (* Round robin deadlocks this program before the second acquires even
     happen; the serial schedule completes and still predicts the
     cycle. *)
  let report =
    Predict.Lockgraph.analyze (exec_of Tml.Programs.bank_transfer (serial_sched ()))
  in
  Alcotest.(check (list string)) "locks seen" [ "la"; "lb" ] report.Predict.Lockgraph.locks;
  Alcotest.(check bool) "cycle predicted" false (Predict.Lockgraph.deadlock_free report);
  Alcotest.(check (list (list string))) "the la-lb cycle" [ [ "la"; "lb" ] ]
    report.Predict.Lockgraph.cycles

let test_ordered_transfer_no_cycle () =
  let report =
    Predict.Lockgraph.analyze
      (exec_of Tml.Programs.bank_transfer_ordered (Tml.Sched.round_robin ()))
  in
  Alcotest.(check bool) "deadlock free" true (Predict.Lockgraph.deadlock_free report)

let test_single_thread_two_orders_no_deadlock () =
  (* One thread taking locks in both orders at different times is not a
     deadlock. *)
  let program =
    Tml.Parser.parse_program
      {| shared x = 0;
         thread t {
           lock a; lock b; x = 1; unlock b; unlock a;
           lock b; lock a; x = 2; unlock a; unlock b;
         } |}
  in
  let report = Predict.Lockgraph.analyze (exec_of program (Tml.Sched.round_robin ())) in
  Alcotest.(check bool) "single-thread cycle ignored" true
    (Predict.Lockgraph.deadlock_free report)

let test_three_lock_cycle () =
  let program =
    Tml.Parser.parse_program
      {| shared x = 0;
         thread t0 { lock a; lock b; x = 1; unlock b; unlock a; }
         thread t1 { lock b; lock c; x = 2; unlock c; unlock b; }
         thread t2 { lock c; lock a; x = 3; unlock a; unlock c; } |}
  in
  let report = Predict.Lockgraph.analyze (exec_of program (serial_sched ())) in
  Alcotest.(check (list (list string))) "a-b-c cycle" [ [ "a"; "b"; "c" ] ]
    report.Predict.Lockgraph.cycles

(* {1 Liveness} *)

let st l = Pastltl.State.of_list l
let p_eq x n = Pastltl.Predicate.make Pastltl.Predicate.Eq (Pastltl.Predicate.Var x) (Pastltl.Predicate.Const n)

let test_eval_lasso_eventually () =
  let f = Predict.Liveness.FEventually (Predict.Liveness.FAtom (p_eq "x" 1)) in
  Alcotest.(check bool) "x=1 in cycle: satisfied" true
    (Predict.Liveness.eval_lasso f ~prefix:[ st [ ("x", 0) ] ]
       ~cycle:[ st [ ("x", 1) ]; st [ ("x", 0) ] ]);
  Alcotest.(check bool) "x never 1: violated" false
    (Predict.Liveness.eval_lasso f ~prefix:[ st [ ("x", 0) ] ] ~cycle:[ st [ ("x", 0) ] ]);
  Alcotest.(check bool) "x=1 only in prefix: satisfied at position 0" true
    (Predict.Liveness.eval_lasso f ~prefix:[ st [ ("x", 1) ] ] ~cycle:[ st [ ("x", 0) ] ])

let test_eval_lasso_always_until () =
  let atom x n = Predict.Liveness.FAtom (p_eq x n) in
  let g = Predict.Liveness.FAlways (atom "x" 0) in
  Alcotest.(check bool) "always holds on loop" true
    (Predict.Liveness.eval_lasso g ~prefix:[] ~cycle:[ st [ ("x", 0) ] ]);
  Alcotest.(check bool) "always broken in cycle" false
    (Predict.Liveness.eval_lasso g ~prefix:[ st [ ("x", 0) ] ]
       ~cycle:[ st [ ("x", 0) ]; st [ ("x", 1) ] ]);
  let u = Predict.Liveness.FUntil (atom "x" 0, atom "y" 1) in
  Alcotest.(check bool) "until satisfied in prefix" true
    (Predict.Liveness.eval_lasso u
       ~prefix:[ st [ ("x", 0); ("y", 0) ]; st [ ("x", 0); ("y", 1) ] ]
       ~cycle:[ st [ ("x", 9); ("y", 0) ] ]);
  Alcotest.(check bool) "until never reached" false
    (Predict.Liveness.eval_lasso u ~prefix:[ st [ ("x", 0); ("y", 0) ] ]
       ~cycle:[ st [ ("x", 0); ("y", 0) ] ]);
  (* GF p on a cycle where p holds once per period. *)
  let gf = Predict.Liveness.FAlways (Predict.Liveness.FEventually (atom "x" 1)) in
  Alcotest.(check bool) "infinitely often" true
    (Predict.Liveness.eval_lasso gf ~prefix:[]
       ~cycle:[ st [ ("x", 0) ]; st [ ("x", 1) ] ])

let test_eval_lasso_next () =
  let atom x n = Predict.Liveness.FAtom (p_eq x n) in
  let f = Predict.Liveness.FNext (atom "x" 1) in
  Alcotest.(check bool) "next into cycle wrap" true
    (Predict.Liveness.eval_lasso f ~prefix:[ st [ ("x", 0) ] ] ~cycle:[ st [ ("x", 1) ] ]);
  (* Single-state cycle: next of the last position wraps to itself. *)
  Alcotest.(check bool) "self wrap" false
    (Predict.Liveness.eval_lasso f ~prefix:[ st [ ("x", 1) ] ] ~cycle:[ st [ ("x", 0) ] ])

let test_find_lassos_in_toggle_program () =
  (* A computation whose lattice revisits a state: x toggles 0,1,0. *)
  let program =
    Tml.Parser.parse_program {| shared x = 0; thread t { x = 1; x = 0; } |}
  in
  let r = Tml.Vm.run_program ~sched:(Tml.Sched.round_robin ()) program in
  let c =
    Observer.Computation.of_messages_exn ~nthreads:1 ~init:[ ("x", 0) ] r.Tml.Vm.messages
  in
  let lattice = Observer.Lattice.build c in
  let lassos = Predict.Liveness.find_lassos lattice in
  Alcotest.(check bool) "a lasso exists (x returns to 0)" true (lassos <> []);
  (* "eventually always x = 1" is violated on the x-toggling lasso. *)
  let spec =
    Predict.Liveness.FEventually
      (Predict.Liveness.FAlways (Predict.Liveness.FAtom (p_eq "x" 1)))
  in
  match Predict.Liveness.check ~spec lattice with
  | Some lasso ->
      Alcotest.(check bool) "cycle is nonempty" true
        (lasso.Predict.Liveness.cycle <> [])
  | None -> Alcotest.fail "expected a liveness counterexample"

let test_no_lasso_in_monotone_program () =
  let c = xyz_comp () in
  let lattice = Observer.Lattice.build c in
  (* Every event changes the state monotonically here; x=0 appears twice
     but as different full states, so lassos may or may not exist —
     assert only that the API is total and check returns None for a
     trivially satisfied spec. *)
  let spec = Predict.Liveness.FAlways Predict.Liveness.FTrue in
  Alcotest.(check bool) "true spec has no counterexample" true
    (Predict.Liveness.check ~spec lattice = None)

(* {1 Atomicity} *)

let test_atomicity_remote_unprotected_write () =
  (* T0's sync block reads then writes counter; T1 writes it with no
     lock. Even a serial run predicts the R-W-W violation. *)
  let program =
    Tml.Parser.parse_program
      {| shared counter = 0;
         thread a { sync (m) { counter = counter + 1; } }
         thread b { counter = 5; } |}
  in
  let report = Predict.Atomicity.analyze (exec_of program (serial_sched ())) in
  Alcotest.(check int) "one sync block" 1 report.Predict.Atomicity.transactions;
  Alcotest.(check bool) "violation predicted" false
    (Predict.Atomicity.serializable report);
  match report.Predict.Atomicity.violations with
  | [ v ] ->
      Alcotest.(check string) "pattern" "update from stale read (R-W-W)"
        (Predict.Atomicity.pattern_name v.Predict.Atomicity.pattern);
      Alcotest.(check string) "variable" "counter" v.Predict.Atomicity.var
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

let test_atomicity_same_lock_serializable () =
  let report =
    Predict.Atomicity.analyze
      (exec_of (Tml.Programs.locked_counter ~increments:3) (serial_sched ()))
  in
  Alcotest.(check int) "six blocks" 6 report.Predict.Atomicity.transactions;
  Alcotest.(check bool) "serializable" true (Predict.Atomicity.serializable report)

let test_atomicity_stale_reread () =
  (* Two reads of the same variable in one block with a concurrent
     remote write: R-W-R. *)
  let program =
    Tml.Parser.parse_program
      {| shared x = 0, out = 0;
         thread a { sync (m) { out = x + x; } }
         thread b { x = 7; } |}
  in
  let report = Predict.Atomicity.analyze (exec_of program (serial_sched ())) in
  Alcotest.(check bool) "violation predicted" false
    (Predict.Atomicity.serializable report);
  Alcotest.(check bool) "R-W-R among patterns" true
    (List.exists
       (fun v -> v.Predict.Atomicity.pattern = Predict.Atomicity.(Read, Write, Read))
       report.Predict.Atomicity.violations)

let test_atomicity_remote_read_of_dirty_state () =
  (* W-R-W: a block writing twice while another thread reads. *)
  let program =
    Tml.Parser.parse_program
      {| shared x = 0, seen = 0;
         thread a { sync (m) { x = 1; x = 2; } }
         thread b { seen = x; } |}
  in
  let report = Predict.Atomicity.analyze (exec_of program (serial_sched ())) in
  Alcotest.(check bool) "W-R-W predicted" true
    (List.exists
       (fun v -> v.Predict.Atomicity.pattern = Predict.Atomicity.(Write, Read, Write))
       report.Predict.Atomicity.violations)

let test_atomicity_remote_read_between_reads_ok () =
  (* R-R-R is serializable: a remote READ between two local reads. *)
  let program =
    Tml.Parser.parse_program
      {| shared x = 1, out = 0, out2 = 0;
         thread a { sync (m) { out = x + x; } }
         thread b { out2 = x; } |}
  in
  let report = Predict.Atomicity.analyze (exec_of program (serial_sched ())) in
  Alcotest.(check bool) "serializable" true (Predict.Atomicity.serializable report)

let test_atomicity_ordered_remote_ok () =
  (* The remote write holds the same lock: ordered, not a violation. *)
  let program =
    Tml.Parser.parse_program
      {| shared counter = 0;
         thread a { sync (m) { counter = counter + 1; } }
         thread b { sync (m) { counter = 5; } } |}
  in
  let report = Predict.Atomicity.analyze (exec_of program (serial_sched ())) in
  Alcotest.(check bool) "serializable" true (Predict.Atomicity.serializable report)

(* {1 Counterexample replay} *)

let test_replay_counterexamples () =
  List.iter
    (fun (name, program, script, spec) ->
      let comp = observe program script (Pastltl.Formula.vars spec) in
      let report = Predict.Counterexample.check ~spec comp in
      Alcotest.(check bool) (name ^ ": has counterexamples") true
        (report.Predict.Counterexample.violating <> []);
      List.iter
        (fun ce ->
          match Predict.Replay.replay_counterexample ~spec ~program ce with
          | Error f ->
              Alcotest.failf "%s: replay failed: %a" name Predict.Replay.pp_failure f
          | Ok outcome ->
              (* The replayed execution itself violates the property: the
                 predicted schedule is real. *)
              let init =
                List.filter
                  (fun (x, _) -> List.mem x (Pastltl.Formula.vars spec))
                  program.Tml.Ast.shared
              in
              Alcotest.(check bool) (name ^ ": replayed run violates observably") false
                (Predict.Analyzer.observed_run_verdict ~spec ~init
                   outcome.Predict.Replay.result.Tml.Vm.messages);
              Alcotest.(check int) (name ^ ": all target events emitted")
                (List.length ce.Predict.Counterexample.run)
                (List.length outcome.Predict.Replay.emitted);
              (* The returned script reproduces the same messages. *)
              let image = Tml.Instrument.instrument_program program in
              let relevance =
                Mvc.Relevance.writes_of_vars (Pastltl.Formula.vars spec)
              in
              let r2 =
                Tml.Vm.run_image ~relevance
                  ~sched:(Tml.Sched.of_script outcome.Predict.Replay.script)
                  image
              in
              Alcotest.(check bool) (name ^ ": script reproduces") true
                (List.equal Message.equal
                   outcome.Predict.Replay.result.Tml.Vm.messages
                   r2.Tml.Vm.messages))
        report.Predict.Counterexample.violating)
    [ ("landing", Tml.Programs.landing_bounded, Tml.Programs.landing_observed,
       Pastltl.Formula.landing_spec);
      ("xyz", Tml.Programs.xyz, Tml.Programs.xyz_observed, Pastltl.Formula.xyz_spec) ]

let test_replay_rejects_wrong_values () =
  (* Ask the xyz program to emit y=999 first: mismatch. *)
  let comp = xyz_comp () in
  let m = Observer.Computation.message comp 0 1 in
  let bogus = { m with Message.value = 999 } in
  let image = Tml.Instrument.instrument_program Tml.Programs.xyz in
  match
    Predict.Replay.run
      ~relevance:(Mvc.Relevance.writes_of_vars [ "x"; "y"; "z" ])
      ~image [ bogus ]
  with
  | Error (Predict.Replay.Event_mismatch _) -> ()
  | Error f -> Alcotest.failf "wrong failure: %a" Predict.Replay.pp_failure f
  | Ok _ -> Alcotest.fail "bogus target replayed?!"

let test_replay_rejects_short_target () =
  (* A prefix-only target: the program keeps emitting beyond it. *)
  let comp = xyz_comp () in
  let first = Observer.Computation.message comp 0 1 in
  let image = Tml.Instrument.instrument_program Tml.Programs.xyz in
  match
    Predict.Replay.run
      ~relevance:(Mvc.Relevance.writes_of_vars [ "x"; "y"; "z" ])
      ~image [ first ]
  with
  | Error (Predict.Replay.Unexpected_event _) -> ()
  | Error f -> Alcotest.failf "wrong failure: %a" Predict.Replay.pp_failure f
  | Ok _ -> Alcotest.fail "short target accepted?!"

(* {1 Online analyzer} *)

let online_of_comp spec comp messages ~feed_order =
  let nthreads = Observer.Computation.nthreads comp in
  let init = Pastltl.State.to_list (Observer.Computation.init_state comp) in
  let online = Predict.Online.create ~nthreads ~init ~spec () in
  Predict.Online.feed_all online (feed_order messages);
  Predict.Online.finish online;
  online

let violation_equal (a : Predict.Online.violation) (b : Predict.Online.violation) =
  a.level = b.level
  && a.cut = b.cut
  && Pastltl.State.equal a.state b.state
  && Pastltl.Monitor.compare_state a.monitor_state b.monitor_state = 0

let violations_equal a b =
  List.length a = List.length b && List.for_all2 violation_equal a b

(* Delivery order is invisible to the observer: whatever order the
   channel delivers in, the finished run has the same violations, level
   and gc statistics as in-order delivery. *)
let same_as_in_order ~name spec comp ~feed_order =
  let messages = Observer.Computation.messages comp in
  let in_order = online_of_comp spec comp messages ~feed_order:Fun.id in
  let other = online_of_comp spec comp messages ~feed_order in
  Alcotest.(check bool) (name ^ ": same violations") true
    (violations_equal (Predict.Online.violations in_order) (Predict.Online.violations other));
  Alcotest.(check int) (name ^ ": same level") (Predict.Online.level in_order)
    (Predict.Online.level other);
  Alcotest.(check bool) (name ^ ": same gc stats") true
    (Predict.Online.gc_stats in_order = Predict.Online.gc_stats other)

let test_online_order_independent_on_examples () =
  List.iter
    (fun (comp, spec) ->
      List.iter
        (fun (order, feed_order) ->
          same_as_in_order
            ~name:(Format.asprintf "%s delivery, %a" order Pastltl.Formula.pp spec)
            spec comp ~feed_order)
        [ ("reversed", List.rev); ("shuffled", Observer.Channel.shuffle ~seed:5) ])
    [ (landing_comp (), Pastltl.Formula.landing_spec);
      (xyz_comp (), Pastltl.Formula.xyz_spec);
      (landing_comp (), Pastltl.Formula.True);
      (xyz_comp (), Pastltl.Fparser.parse "[x == 0, y == 1)") ]

let test_online_blocks_until_available () =
  let comp = xyz_comp () in
  let spec = Pastltl.Formula.xyz_spec in
  let init = Pastltl.State.to_list (Observer.Computation.init_state comp) in
  let online = Predict.Online.create ~nthreads:2 ~init ~spec () in
  Alcotest.(check int) "starts at level 0" 0 (Predict.Online.level online);
  (* Feed only thread 1's messages: the frontier cannot pass level 0
     because thread 0's first event might still arrive. *)
  let m_t1 =
    List.filter (fun (m : Message.t) -> m.tid = 1) (Observer.Computation.messages comp)
  in
  Predict.Online.feed_all online m_t1;
  Alcotest.(check int) "still level 0" 0 (Predict.Online.level online);
  Predict.Online.end_of_thread online 0;
  (* Thread 0 is now known silent... but its messages were never sent:
     end_of_thread with nothing delivered means thread 0 emitted nothing
     in this fiction; the frontier can then advance through thread 1's
     events alone if causality allows. Here e2 (z=1) depends on e1 of
     thread 0, so the analyzer correctly stalls at the bottom. *)
  Alcotest.(check int) "stalls: thread 1's events depend on thread 0" 0
    (Predict.Online.level online)

let test_online_incremental_progress () =
  let comp = xyz_comp () in
  let spec = Pastltl.Formula.xyz_spec in
  let init = Pastltl.State.to_list (Observer.Computation.init_state comp) in
  let online = Predict.Online.create ~nthreads:2 ~init ~spec () in
  let messages = Observer.Computation.messages comp in
  let levels = ref [ Predict.Online.level online ] in
  List.iter
    (fun m ->
      Predict.Online.feed online m;
      levels := Predict.Online.level online :: !levels)
    messages;
  Predict.Online.finish online;
  levels := Predict.Online.level online :: !levels;
  let levels = List.rev !levels in
  Alcotest.(check bool) "levels monotone" true
    (List.for_all2 ( <= ) (List.filteri (fun i _ -> i < List.length levels - 1) levels)
       (List.tl levels));
  Alcotest.(check int) "ends at the top level" 4 (Predict.Online.level online);
  Alcotest.(check bool) "violation found online" true (Predict.Online.violated online)

let test_online_gc () =
  let comp = xyz_comp () in
  let spec = Pastltl.Formula.True in
  let init = Pastltl.State.to_list (Observer.Computation.init_state comp) in
  let online = Predict.Online.create ~nthreads:2 ~init ~spec () in
  Predict.Online.feed_all online (Observer.Computation.messages comp);
  Predict.Online.finish online;
  let stats = Predict.Online.gc_stats online in
  Alcotest.(check bool) "cuts were retired" true (stats.Predict.Online.retired_cuts > 0);
  Alcotest.(check int) "peak frontier = lattice max width" 2
    stats.Predict.Online.peak_frontier_cuts;
  Alcotest.(check bool) "consumed messages were dropped" true
    (Predict.Online.buffered online < 4)

let test_online_duplicate_rejected () =
  let comp = xyz_comp () in
  let init = Pastltl.State.to_list (Observer.Computation.init_state comp) in
  let online = Predict.Online.create ~nthreads:2 ~init ~spec:Pastltl.Formula.True () in
  (* Thread 0's second message ahead of its first is held back; the
     first releases both, and a repeat of either is refused. *)
  let m0_1, m0_2 =
    match Observer.Computation.messages comp with
    | a :: b :: _ -> (a, b)
    | _ -> Alcotest.fail "xyz has two messages on thread 0"
  in
  Predict.Online.feed online m0_2;
  Alcotest.(check int) "second held out of order" 1 (Predict.Online.out_of_order online);
  Predict.Online.feed online m0_1;
  Alcotest.(check int) "first releases the prefix" 0 (Predict.Online.out_of_order online);
  Alcotest.(check int) "prefix 1..2" 3 (Predict.Online.next_index online 0);
  List.iter
    (fun m ->
      match Predict.Online.feed online m with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "duplicate accepted")
    [ m0_1; m0_2 ]

let test_online_missing_message_detected () =
  let comp = xyz_comp () in
  let init = Pastltl.State.to_list (Observer.Computation.init_state comp) in
  let online = Predict.Online.create ~nthreads:2 ~init ~spec:Pastltl.Formula.True () in
  (* Drop thread 0's first message but deliver its second. *)
  List.iter
    (fun (m : Message.t) ->
      if not (m.tid = 0 && Message.seq m = 1) then Predict.Online.feed online m)
    (Observer.Computation.messages comp);
  Alcotest.(check (option (pair int int))) "waiting for T0 #1" (Some (0, 1))
    (Predict.Online.missing online);
  match Predict.Online.finish online with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "gap not detected"

let test_online_order_independent_random () =
  List.iteri
    (fun i comp ->
      List.iter
        (fun spec ->
          List.iter
            (fun seed ->
              same_as_in_order
                ~name:(Format.asprintf "comp %d, seed %d, %a" i seed Pastltl.Formula.pp spec)
                spec comp
                ~feed_order:(Observer.Channel.shuffle ~seed))
            [ 1; 2; 3 ])
        specs_pool)
    (computations_pool ())

(* The report keeps the first [max_violations] violations in level
   order, and they survive a checkpoint round trip.  The 3^8 grid under
   [always v0 <= 0] has 4374 violating (cut, monitor-state) pairs. *)
let test_online_violation_cap () =
  let program = Tml.Programs.independent ~threads:8 ~writes:2 in
  let r = Tml.Vm.run_program ~sched:(Tml.Sched.round_robin ()) program in
  let comp =
    Observer.Computation.of_messages_exn ~nthreads:8 ~init:program.Tml.Ast.shared
      r.Tml.Vm.messages
  in
  let spec = Pastltl.Fparser.parse "always v0 <= 0" in
  let online =
    online_of_comp spec comp (Observer.Computation.messages comp) ~feed_order:Fun.id
  in
  let kept = Predict.Online.violations online in
  Alcotest.(check int) "cap is 1000" 1000 Predict.Online.max_violations;
  Alcotest.(check int) "exactly the cap retained" 1000 (List.length kept);
  Alcotest.(check bool) "violated" true (Predict.Online.violated online);
  let levels = List.map (fun (v : Predict.Online.violation) -> v.level) kept in
  Alcotest.(check bool) "level order" true (List.sort compare levels = levels);
  let report = analyze ~spec comp in
  Alcotest.(check bool) "analyzer reports the same 1000" true
    (violations_equal kept report.Predict.Analyzer.violations);
  let restored = Predict.Online.restore ~spec (Predict.Online.snapshot online) in
  Alcotest.(check bool) "snapshot/restore keeps the 1000" true
    (violations_equal kept (Predict.Online.violations restored));
  Alcotest.(check bool) "restored still violated" true (Predict.Online.violated restored)

(* Random programs: 2-3 threads of random writes to a small shared pool,
   run under a random schedule. *)
let gen_random_program =
  QCheck.Gen.(
    let var = oneofl [ "a"; "b"; "c" ] in
    let stmt = pair var (int_bound 3) in
    let thread = list_size (int_range 1 3) stmt in
    triple (list_size (int_range 2 3) thread) (int_bound 1000) (int_bound 1000))

let print_random_program (threads, sched_seed, spec_seed) =
  Printf.sprintf "sched=%d spec=%d %s" sched_seed spec_seed
    (String.concat "|"
       (List.map
          (fun stmts ->
            String.concat ";" (List.map (fun (x, v) -> Printf.sprintf "%s=%d" x v) stmts))
          threads))

let arb_random_program = QCheck.make ~print:print_random_program gen_random_program

let random_specs_pool =
  [ Pastltl.Fparser.parse "always a <= 2";
    Pastltl.Fparser.parse "[a == 1, b == 1)";
    Pastltl.Fparser.parse "start b == 1 ==> once a == 1";
    Pastltl.Fparser.parse "(prev c == 0) or c == 0" ]

let comp_of_random (threads, sched_seed, _) =
  let source =
    Printf.sprintf "shared a = 0, b = 0, c = 0;\n%s"
      (String.concat "\n"
         (List.mapi
            (fun i stmts ->
              Printf.sprintf "thread t%d { %s }" i
                (String.concat " "
                   (List.map (fun (x, v) -> Printf.sprintf "%s = %d;" x v) stmts)))
            threads))
  in
  let program = Tml.Parser.parse_program source in
  let vars = [ "a"; "b"; "c" ] in
  let relevance = Mvc.Relevance.writes_of_vars vars in
  let r =
    Tml.Vm.run_program ~relevance ~sched:(Tml.Sched.random ~seed:sched_seed) program
  in
  Observer.Computation.of_messages_exn
    ~nthreads:(List.length program.Tml.Ast.threads)
    ~init:program.Tml.Ast.shared r.Tml.Vm.messages

(* Ground truth for the lattice sweep: the online verdict under a
   shuffled delivery equals explicit run enumeration checked with the
   direct semantics, and the offline report visits exactly the lattice's
   cuts, level by level, with the widest level as its frontier peak. *)
let qcheck_online_vs_enumeration =
  QCheck.Test.make ~name:"online == run enumeration"
    ~count:60 arb_random_program (fun ((_, _, spec_seed) as rp) ->
      let comp = comp_of_random rp in
      let spec = List.nth random_specs_pool (spec_seed mod List.length random_specs_pool) in
      let online =
        online_of_comp spec comp
          (Observer.Computation.messages comp)
          ~feed_order:(Observer.Channel.shuffle ~seed:spec_seed)
      in
      let enumerated = Predict.Counterexample.check ~spec comp in
      let stats = (analyze ~spec comp).Predict.Analyzer.stats in
      let lattice = Observer.Lattice.build comp in
      Predict.Online.violated online = Predict.Counterexample.violated enumerated
      && stats.Predict.Analyzer.cuts_visited = Observer.Lattice.node_count lattice
      && stats.Predict.Analyzer.max_frontier_cuts = Observer.Lattice.max_width lattice
      && stats.Predict.Analyzer.levels = Observer.Lattice.level_count lattice)

(* {1 Violations against ground truth}

   The observer records a level's violations only when a monitor state
   stepped on that level fails, so a skipped scan must never lose one.
   The reference here shares no code with the sweep: it materializes
   the lattice ({!Observer.Lattice.build}), propagates monitor-state
   sets along its edges level by level with the semantic monitor
   ({!Pastltl.Monitor.step} on the node's global state), and reads the
   report off in level order, cuts lexicographic within a level,
   monitor states ascending, capped at [max_violations]. *)

module Sset = Set.Make (struct
  type t = Pastltl.Monitor.state

  let compare = Pastltl.Monitor.compare_state
end)

let reference_violations spec comp =
  let monitor = Pastltl.Monitor.compile spec in
  let lattice = Observer.Lattice.build comp in
  let sets = Array.make (Observer.Lattice.node_count lattice) Sset.empty in
  let bottom = Observer.Lattice.bottom lattice in
  sets.(bottom.id) <- Sset.singleton (Pastltl.Monitor.init monitor bottom.state);
  let report = ref [] and kept = ref 0 in
  for level = 0 to Observer.Lattice.level_count lattice - 1 do
    Observer.Lattice.level lattice level
    |> List.sort (fun (a : Observer.Lattice.node) b -> compare a.cut b.cut)
    |> List.iter (fun (node : Observer.Lattice.node) ->
           if level > 0 then
             sets.(node.id) <-
               List.fold_left
                 (fun acc (_, (src : Observer.Lattice.node)) ->
                   Sset.fold
                     (fun ms acc -> Sset.add (Pastltl.Monitor.step monitor ms node.state) acc)
                     sets.(src.id) acc)
                 Sset.empty
                 (Observer.Lattice.predecessors lattice node);
           Sset.iter
             (fun ms ->
               if !kept < Predict.Online.max_violations
                  && not (Pastltl.Monitor.verdict monitor ms)
               then begin
                 incr kept;
                 report :=
                   { Predict.Online.cut = node.cut; level; state = node.state; monitor_state = ms }
                   :: !report
               end)
             sets.(node.id))
  done;
  List.rev !report

(* Past-time specs whose violations come and go with the state: some
   levels of a lattice hold violating cuts, others none. *)
let temporal_specs_pool =
  List.map Pastltl.Fparser.parse
    [ "(b == 2) ==> once (a == 1)";
      "(c > 0) ==> ((a == 0) since (b == 1))";
      "[a == 1, b == 2)";
      "start (c == 3) ==> [a > 0, b == 0)";
      "(prev (a == 2)) ==> (once (b == 1) or c == 0)";
      "always (b <= 1) or once (c == 2)" ]

let qcheck_violations_vs_lattice =
  QCheck.Test.make ~name:"violations == lattice propagation" ~count:150 arb_random_program
    (fun ((_, _, spec_seed) as rp) ->
      let comp = comp_of_random rp in
      let spec =
        List.nth temporal_specs_pool (spec_seed mod List.length temporal_specs_pool)
      in
      let expected = reference_violations spec comp in
      let online =
        online_of_comp spec comp
          (Observer.Computation.messages comp)
          ~feed_order:(Observer.Channel.shuffle ~seed:spec_seed)
      in
      violations_equal expected (Predict.Online.violations online)
      && Predict.Online.violated online = (expected <> []))

(* The cap against the same reference: on the 3^8 grid of 8 threads
   writing v_i = 1 then 2, [v0 == 2] without [v1] ever 2 on the path
   fails at 1,458 cuts, none on levels 0 and 1. *)
let test_violation_cap_vs_lattice () =
  let program = Tml.Programs.independent ~threads:8 ~writes:2 in
  let r = Tml.Vm.run_program ~sched:(Tml.Sched.round_robin ()) program in
  let comp =
    Observer.Computation.of_messages_exn ~nthreads:8 ~init:program.Tml.Ast.shared
      r.Tml.Vm.messages
  in
  let spec = Pastltl.Fparser.parse "(v0 == 2) ==> once (v1 == 2)" in
  let expected = reference_violations spec comp in
  Alcotest.(check int) "reference fills the cap" Predict.Online.max_violations
    (List.length expected);
  Alcotest.(check bool) "levels 0 and 1 clean" true
    (List.for_all (fun (v : Predict.Online.violation) -> v.level >= 2) expected);
  let online =
    online_of_comp spec comp
      (Observer.Computation.messages comp)
      ~feed_order:(Observer.Channel.shuffle ~seed:3)
  in
  Alcotest.(check bool) "same 1000, same order" true
    (violations_equal expected (Predict.Online.violations online))

let test_counterexample_run_count_fields () =
  let report =
    Predict.Counterexample.check ~spec:Pastltl.Formula.landing_spec (landing_comp ())
  in
  Alcotest.(check int) "run_count matches enumeration" 3
    report.Predict.Counterexample.run_count;
  Alcotest.(check bool) "not saturated" false
    report.Predict.Counterexample.run_count_saturated

(* {1 The message store against a reference model}

   Random vector-clocked streams (2-4 threads, up to 400 messages per
   thread, so a thread's log can span two 256-slot blocks), delivered
   through [bounded_reorder] at several windows, with [end_of_thread]
   once a thread's last message is in.  The model is a [Hashtbl] of the
   received messages plus per-thread prefixes; the only thing it takes
   from the observer is the gc floor (a property of the frontier, not of
   the store).  After every feed [buffered], [out_of_order], [missing],
   [handoff] and the snapshot's store and counters must match it.

   Midway the observer is snapshotted and restored twice: as is, and
   shifted [1 lsl 40] messages up every thread (cuts, prefixes, gc
   floors, clocks; the level by the same amount, which leaves
   [can_advance] unchanged).  Both continue the stream in lockstep with
   the model, and the shifted one holds no more memory than the other. *)

module Store_model = struct
  type t = {
    received : (int * int, Trace.Message.t) Hashtbl.t;
    prefix : int array;
    beyond : int array;
    hi : int array;  (* highest seq received *)
    ended : bool array;
  }

  let create n =
    { received = Hashtbl.create 64;
      prefix = Array.make n 0;
      beyond = Array.make n 0;
      hi = Array.make n 0;
      ended = Array.make n false }

  let feed t (m : Trace.Message.t) =
    let k = Trace.Message.seq m in
    Hashtbl.replace t.received (m.tid, k) m;
    t.hi.(m.tid) <- max t.hi.(m.tid) k;
    t.beyond.(m.tid) <- t.beyond.(m.tid) + 1;
    while Hashtbl.mem t.received (m.tid, t.prefix.(m.tid) + 1) do
      t.prefix.(m.tid) <- t.prefix.(m.tid) + 1;
      t.beyond.(m.tid) <- t.beyond.(m.tid) - 1
    done

  (* Received messages with seq above [from.(tid)], ascending (tid, seq). *)
  let above t from =
    let acc = ref [] in
    for i = Array.length from - 1 downto 0 do
      for k = t.hi.(i) downto from.(i) + 1 do
        match Hashtbl.find_opt t.received (i, k) with
        | Some m -> acc := m :: !acc
        | None -> ()
      done
    done;
    !acc

  let missing t =
    let rec go i =
      if i >= Array.length t.beyond then None
      else if t.beyond.(i) > 0 then Some (i, t.prefix.(i) + 1)
      else go (i + 1)
    in
    go 0
end

(* A random causally consistent stream: at each step some thread emits
   a write, having first (three times in four) learned another
   thread's current clock, which keeps the lattice narrow. *)
let clocked_stream ~n ~per_thread ~seed =
  let rng = Random.State.make [| seed |] in
  let clocks = Array.init n (fun _ -> Array.make n 0) in
  let left = Array.make n per_thread in
  let out = ref [] and eid = ref 0 in
  while Array.exists (fun k -> k > 0) left do
    let i = Random.State.int rng n in
    if left.(i) > 0 then begin
      if Random.State.int rng 4 > 0 then begin
        let j = Random.State.int rng n in
        Array.iteri (fun k v -> clocks.(i).(k) <- max clocks.(i).(k) v) clocks.(j)
      end;
      clocks.(i).(i) <- clocks.(i).(i) + 1;
      left.(i) <- left.(i) - 1;
      let var = [| "a"; "b"; "c" |].(Random.State.int rng 3) in
      out :=
        Trace.Message.make ~eid:!eid ~tid:i ~var ~value:(Random.State.int rng 4)
          ~mvc:(Vclock.of_array clocks.(i))
        :: !out;
      incr eid
    end
  done;
  List.rev !out

let gen_clocked_stream =
  QCheck.Gen.(
    int_range 2 4 >>= fun n ->
    int_range 1 400 >>= fun per_thread ->
    int_bound 100_000 >>= fun seed ->
    oneofl [ 1; 4; 16; 64; 300 ] >>= fun window ->
    int_bound 1000 >>= fun reorder_seed ->
    oneofl random_specs_pool >>= fun spec ->
    float_range 0.1 0.9 >>= fun cut ->
    return
      ( n,
        Observer.Channel.bounded_reorder ~seed:reorder_seed ~window
          (clocked_stream ~n ~per_thread ~seed),
        spec,
        cut ))

let shift = 1 lsl 40

let shift_message (m : Trace.Message.t) =
  { m with mvc = Vclock.of_array (Array.map (fun k -> k + shift) (Vclock.to_array m.mvc)) }

let shift_snapshot (s : Predict.Online.snapshot) =
  let up = Array.map (fun k -> k + shift) in
  { s with
    Predict.Online.snap_level = s.Predict.Online.snap_level + shift;
    snap_prefix = up s.snap_prefix;
    snap_gc_floor = up s.snap_gc_floor;
    snap_store = List.map shift_message s.snap_store;
    snap_frontier = List.map (fun (cut, b, m) -> (up cut, b, m)) s.snap_frontier;
    snap_violations =
      List.map (fun (cut, l, b, m) -> (up cut, l + shift, b, m)) s.snap_violations }

let unshift_messages = List.map (fun (m : Trace.Message.t) ->
  { m with mvc = Vclock.of_array (Array.map (fun k -> k - shift) (Vclock.to_array m.mvc)) })

let down = Array.map (fun k -> k - shift)

(* [o]'s store against the model after feed [step]. *)
let check_store ~(fail : string -> unit) step o (model : Store_model.t) =
  let module O = Predict.Online in
  let snap = O.snapshot o in
  let stored = Store_model.above model snap.O.snap_gc_floor in
  if O.buffered o <> List.length stored then fail (Printf.sprintf "step %d: buffered" step);
  if snap.O.snap_store <> stored then fail (Printf.sprintf "step %d: snapshot store" step);
  if snap.O.snap_prefix <> model.prefix then fail (Printf.sprintf "step %d: prefix" step);
  if snap.O.snap_beyond <> model.beyond then fail (Printf.sprintf "step %d: beyond" step);
  if O.out_of_order o <> Array.fold_left ( + ) 0 model.beyond then
    fail (Printf.sprintf "step %d: out_of_order" step);
  if O.missing o <> Store_model.missing model then fail (Printf.sprintf "step %d: missing" step);
  let prefix, ended, pending = O.handoff o in
  if prefix <> model.prefix || ended <> model.ended
     || pending <> Store_model.above model model.prefix
  then fail (Printf.sprintf "step %d: handoff" step)

let prop_store_matches_model =
  QCheck.Test.make ~name:"message store = Hashtbl model, with a shifted restore" ~count:20
    (QCheck.make
       ~print:(fun (n, ms, spec, cut) ->
         Printf.sprintf "%d threads, %d messages, %s, cut %.2f" n (List.length ms)
           (Pastltl.Formula.to_string spec) cut)
       gen_clocked_stream)
    (fun (n, messages, spec, cut) ->
      let module O = Predict.Online in
      let init = [ ("a", 0); ("b", 0); ("c", 0) ] in
      let model = Store_model.create n in
      let total = Array.make n 0 in
      List.iter (fun (m : Trace.Message.t) -> total.(m.tid) <- total.(m.tid) + 1) messages;
      let fed = Array.make n 0 in
      let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_report s) fmt in
      (* [o] against the model; [shifted] against [o], shifted back. *)
      let check step o shifted =
        check_store ~fail:(fail "%s") step o model;
        let snap = O.snapshot o in
        let gc_floor = snap.O.snap_gc_floor in
        let stored = Store_model.above model gc_floor in
        match shifted with
        | None -> ()
        | Some sh ->
            let ssnap = O.snapshot sh in
            if O.buffered sh <> O.buffered o || O.out_of_order sh <> O.out_of_order o
            then fail "step %d: shifted counters" step;
            if down ssnap.O.snap_gc_floor <> gc_floor
               || down ssnap.O.snap_prefix <> model.prefix
               || unshift_messages ssnap.O.snap_store <> stored
            then fail "step %d: shifted snapshot" step;
            if O.mem_words sh <> O.mem_words o then fail "step %d: shifted mem_words" step
      in
      let feed o shifted (m : Trace.Message.t) =
        O.feed o m;
        Option.iter (fun sh -> O.feed sh (shift_message m)) shifted;
        fed.(m.tid) <- fed.(m.tid) + 1;
        Store_model.feed model m;
        if fed.(m.tid) = total.(m.tid) && m.tid mod 2 = 0 then begin
          O.end_of_thread o m.tid;
          Option.iter (fun sh -> O.end_of_thread sh m.tid) shifted;
          model.ended.(m.tid) <- true
        end
      in
      let cut_at = int_of_float (cut *. float_of_int (List.length messages)) in
      let o = ref (O.create ~nthreads:n ~init ~spec ()) and shifted = ref None in
      List.iteri
        (fun step m ->
          if step = cut_at then begin
            let snap = O.snapshot !o in
            o := O.restore ~spec snap;
            let sh = O.restore ~spec (shift_snapshot snap) in
            if Obj.reachable_words (Obj.repr sh) > Obj.reachable_words (Obj.repr !o) then
              fail "shifted restore holds more memory";
            shifted := Some sh
          end;
          feed !o !shifted m;
          check step !o !shifted)
        messages;
      O.finish !o;
      Option.iter O.finish !shifted;
      (match !shifted with
      | Some sh when O.violated sh <> O.violated !o -> fail "shifted verdict"
      | _ -> ());
      O.buffered !o = List.length (Store_model.above model (O.snapshot !o).O.snap_gc_floor))

(* Messages sent far ahead of their thread's prefix: a 2-thread stream
   of 3,000 writes per thread, delivered in order except for a few
   messages 1,000 to 2,900 ahead, which arrive first.  Their blocks are
   held off the spine until the prefix comes near, and the store must
   match the model after every feed all the same. *)
let test_far_ahead_matches_model () =
  let module O = Predict.Online in
  let messages = clocked_stream ~n:2 ~per_thread:3000 ~seed:5 in
  let early (m : Trace.Message.t) =
    List.mem (m.tid, Trace.Message.seq m)
      [ (0, 2900); (0, 2000); (0, 1500); (0, 1400); (1, 1301); (1, 2500) ]
  in
  let first, rest = List.partition early messages in
  let o =
    O.create ~nthreads:2 ~init:[ ("a", 0); ("b", 0); ("c", 0) ]
      ~spec:(Pastltl.Fparser.parse "always a <= 3") ()
  in
  let model = Store_model.create 2 in
  List.iteri
    (fun step m ->
      O.feed o m;
      Store_model.feed model m;
      check_store ~fail:Alcotest.fail step o model;
      if step mod 500 = 499 then begin
        let est = O.mem_words o and real = Obj.reachable_words (Obj.repr o) in
        if 5 * est < 4 * real || 4 * est > 5 * real then
          Alcotest.failf "step %d: mem_words %d, reachable words %d" step est real
      end)
    (List.rev first @ rest);
  O.finish o;
  Alcotest.(check bool) "not violated" false (O.violated o)

(* One message with a forged sequence number 2^40 (a clock component
   any wire frame may carry) costs one block, not a spine 2^32 long:
   storing it, snapshotting, handing off and restoring all stay small. *)
let test_forged_seq_stays_small () =
  let module O = Predict.Online in
  let far = Trace.Message.make ~eid:0 ~tid:0 ~var:"x" ~value:1 ~mvc:(Vclock.of_list [ 1 lsl 40; 0 ]) in
  let o = O.create ~nthreads:2 ~init:[ ("x", 0) ] ~spec:(Pastltl.Fparser.parse "always x <= 3") () in
  O.feed o far;
  O.feed o (Trace.Message.make ~eid:1 ~tid:0 ~var:"x" ~value:2 ~mvc:(Vclock.of_list [ 1; 0 ]));
  let t1 = Trace.Message.make ~eid:2 ~tid:1 ~var:"x" ~value:3 ~mvc:(Vclock.of_list [ 1; 1 ]) in
  O.feed o t1;
  let small what words =
    if words > 5_000 then Alcotest.failf "%s: %d words" what words
  in
  small "mem_words" (O.mem_words o);
  small "reachable" (Obj.reachable_words (Obj.repr o));
  (* Level 1 is cut (1, 0) alone, so thread 0's first message is collected. *)
  Alcotest.(check int) "buffered" 2 (O.buffered o);
  Alcotest.(check (option (pair int int))) "missing" (Some (0, 2)) (O.missing o);
  let snap = O.snapshot o in
  Alcotest.(check bool) "snapshot store" true
    (match snap.O.snap_store with [ a; b ] -> a == far && b == t1 | _ -> false);
  let _, _, pending = O.handoff o in
  Alcotest.(check bool) "handoff is the far message" true (pending = [ far ]);
  let r = O.restore ~spec:(Pastltl.Fparser.parse "always x <= 3") snap in
  small "restored mem_words" (O.mem_words r);
  small "restored reachable" (Obj.reachable_words (Obj.repr r));
  Alcotest.(check bool) "restored snapshot" true (O.snapshot r = snap)

(* 4 threads write [wide] times each without communicating, then
   [narrow] rounds in which each thread first learns every clock: the
   lattice is the [wide]^4 grid (489 cuts at its widest for 8 writes)
   followed by a chain. *)
let wide_then_narrow_stream ~wide ~narrow =
  let n = 4 in
  let clocks = Array.init n (fun _ -> Array.make n 0) in
  let out = ref [] and eid = ref 0 in
  let emit i =
    clocks.(i).(i) <- clocks.(i).(i) + 1;
    out :=
      Trace.Message.make ~eid:!eid ~tid:i ~var:[| "a"; "b"; "c" |].(!eid mod 3)
        ~value:(!eid mod 4) ~mvc:(Vclock.of_array clocks.(i))
      :: !out;
    incr eid
  in
  for _ = 1 to wide do
    for i = 0 to n - 1 do
      emit i
    done
  done;
  for _ = 1 to narrow do
    for i = 0 to n - 1 do
      Array.iter (fun c -> Array.iteri (fun k v -> clocks.(i).(k) <- max clocks.(i).(k) v) c) clocks;
      emit i
    done
  done;
  List.rev !out

(* [mem_words] is the estimate the memory budget compares after every
   feed; it must stay within 25% of what the observer really holds:
   while thousands of messages are stored (under a spec whose monitor
   states carry history, so the automaton's memo is populated too), and
   once the frontier has narrowed to one cut after a 489-cut level,
   when both level buffers keep the wide level's storage and the spare
   must hold no payloads.  The specs are never violated: the violation
   report (at most 1000 entries) is not part of the estimate. *)
let test_mem_words_tracks_reachable () =
  let create ?(spec = "always a <= 3") () =
    Predict.Online.create ~nthreads:4 ~init:[ ("a", 0); ("b", 0); ("c", 0) ]
      ~spec:(Pastltl.Fparser.parse spec) ()
  in
  let within_25 o =
    let est = Predict.Online.mem_words o and real = Obj.reachable_words (Obj.repr o) in
    if 5 * est < 4 * real || 4 * est > 5 * real then
      Alcotest.failf "%d stored, level %d: mem_words %d, reachable words %d"
        (Predict.Online.buffered o) (Predict.Online.level o) est real
  in
  List.iter
    (fun spec ->
      let o = create ~spec () in
      List.iteri
        (fun i m ->
          Predict.Online.feed o m;
          if i mod 1000 = 999 then within_25 o)
        (Observer.Channel.bounded_reorder ~seed:3 ~window:16
           (clocked_stream ~n:4 ~per_thread:2000 ~seed:1));
      Alcotest.(check bool) "thousands stored" true (Predict.Online.buffered o > 5000);
      Alcotest.(check bool) "not violated" false (Predict.Online.violated o))
    [ "always a <= 3"; "(once (a == 2)) ==> (((b <= 3) since (c <= 3)) or [a == 1, b == 9))" ];
  let o = create () and narrowed = ref 0 in
  List.iter
    (fun m ->
      Predict.Online.feed o m;
      if Predict.Online.frontier_cuts o = 1
         && (Predict.Online.gc_stats o).Predict.Online.peak_frontier_cuts > 400
      then begin
        incr narrowed;
        within_25 o
      end)
    (wide_then_narrow_stream ~wide:8 ~narrow:40);
  Alcotest.(check bool) "checked on narrow levels" true (!narrowed > 50)

(* Memory over a stream that goes wide and then narrow.  [mem_words]
   must give the wide levels' storage back once the frontier has
   narrowed: twice what the final state needs (the same state restored
   from a snapshot, which rebuilds the frontier at its level's size) is
   exceeded while the frontier is wide and met on every message once
   the frontier has been one cut for two levels. *)
let test_budget_after_wide_level () =
  let module O = Predict.Online in
  let spec = Pastltl.Fparser.parse "always a <= 3" in
  let o = O.create ~nthreads:4 ~init:[ ("a", 0); ("b", 0); ("c", 0) ] ~spec () in
  let trail = ref [] and narrow_since = ref max_int in
  List.iter
    (fun m ->
      O.feed o m;
      if O.frontier_cuts o > 1 then narrow_since := max_int
      else if !narrow_since = max_int then narrow_since := O.level o;
      trail := (O.level o - !narrow_since >= 2, O.mem_words o) :: !trail)
    (wide_then_narrow_stream ~wide:8 ~narrow:40);
  let limit = 2 * O.mem_words (O.restore ~spec (O.snapshot o)) in
  let settled = List.filter fst !trail in
  Alcotest.(check bool) "settled on narrow levels" true (List.length settled > 50);
  Alcotest.(check bool) "exceeded while wide" true
    (List.exists (fun (_, words) -> words > limit) !trail);
  List.iter
    (fun (_, words) ->
      if words > limit then
        Alcotest.failf "narrow frontier: %d words > limit %d" words limit)
    settled

(* The allocation budget of a level step.  On a one-thread stream every
   level is one cut and one transition, so what [feed] allocates per
   message is that transition (a copied state, an entry, a stepped
   monitor state) and the message log, not per-level structures.  The
   two-level sweep reads about 20 words per message here; one that
   allocated its level buffers, scratch cuts and closures afresh on
   every level read about 180. *)
let test_feed_allocation_budget () =
  let n = 10_000 in
  let messages =
    List.init n (fun i ->
        Trace.Message.make ~eid:i ~tid:0 ~var:(if i mod 2 = 0 then "a" else "b")
          ~value:(i mod 4) ~mvc:(Vclock.of_list [ i + 1 ]))
  in
  let o =
    Predict.Online.create ~nthreads:1 ~init:[ ("a", 0); ("b", 0) ]
      ~spec:(Pastltl.Fparser.parse "always a <= 3") ()
  in
  let feed = Predict.Online.feed o in
  let before = Gc.minor_words () in
  List.iter feed messages;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check int) "one level per message" n (Predict.Online.level o);
  if words > 40. then
    Alcotest.failf "Online.feed allocates %.1f words per message (budget 40)" words

(* A wide, short stream: 64 threads send two messages each, every one
   after learning every clock so far (the lattice is a chain).  A
   thread's first log block is sized to what it stores, so the message
   store holds a few words a thread: [feed] plus [finish] allocate about
   13 words a message and [mem_words] peaks near 11,700.  With a full
   256-slot block per thread (517 words) they allocated 267 and
   [mem_words] passed 44,000.  [mem_words] must also stay within 25% of
   the reachable words. *)
let test_wide_short_stream_budget () =
  let n = 64 in
  let clocks = Array.make n 0 in
  let messages =
    List.init (2 * n) (fun i ->
        let tid = i mod n in
        clocks.(tid) <- clocks.(tid) + 1;
        Trace.Message.make ~eid:i ~tid ~var:"c" ~value:i ~mvc:(Vclock.of_array clocks))
  in
  let o =
    Predict.Online.create ~nthreads:n ~init:[ ("c", 0) ]
      ~spec:(Pastltl.Fparser.parse "always c <= 1000") ()
  in
  let peak = ref 0 in
  let before = Gc.minor_words () in
  List.iter
    (fun m ->
      Predict.Online.feed o m;
      peak := max !peak (Predict.Online.mem_words o))
    messages;
  Predict.Online.finish o;
  let words = (Gc.minor_words () -. before) /. float_of_int (2 * n) in
  Alcotest.(check int) "every level" (2 * n) (Predict.Online.level o);
  if words > 40. then
    Alcotest.failf "feed and finish allocate %.1f words per message (budget 40)" words;
  if !peak > 20_000 then Alcotest.failf "mem_words reached %d (budget 20,000)" !peak;
  let o =
    Predict.Online.create ~nthreads:n ~init:[ ("c", 0) ]
      ~spec:(Pastltl.Fparser.parse "always c <= 1000") ()
  in
  List.iteri
    (fun i m ->
      Predict.Online.feed o m;
      if i mod 8 = 0 then begin
        let est = Predict.Online.mem_words o and real = Obj.reachable_words (Obj.repr o) in
        if 5 * est < 4 * real || 4 * est > 5 * real then
          Alcotest.failf "message %d: mem_words %d, reachable words %d" i est real
      end)
    messages

(* {1 The monitor automaton against set-by-set stepping}

   The observer steps the lattice through a memoized automaton over
   interned monitor-state sets.  The reference here is the stepping it
   replaced, kept independent of it: every cut holds its global state
   as a [Pastltl.State.t] and a [Set] of monitor states, and each
   transition steps every state with the semantic monitor
   ({!Pastltl.Monitor.step}) and adds the results to the successor's
   set.  Level advance (every thread has delivered [level + 1] or has
   ended), canonical cut order, violation order and the cap, and the gc
   statistics are the observer's documented behaviour.  After every
   feed the observer's violations, [gc_stats] and snapshot lines
   (frontier, violations, counters) must equal the model's. *)

module Set_model = struct
  type t = {
    monitor : Pastltl.Monitor.compiled;
    n : int;
    received : (int * int, Trace.Message.t) Hashtbl.t;
    prefix : int array;
    beyond : int array;
    ended : bool array;
    mutable level : int;
    mutable done_ : bool;
    mutable frontier : (int array * Pastltl.State.t * Sset.t) list;  (* canonical order *)
    mutable violations : (int array * int * (string * int) list * string) list;  (* newest first *)
    mutable kept : int;
    mutable retired : int;
    mutable peak_cuts : int;
    mutable peak_entries : int;
    mutable steps : int;
  }

  let record t =
    List.iter
      (fun (cut, st, ms) ->
        Sset.iter
          (fun m ->
            if t.kept < Predict.Online.max_violations
               && not (Pastltl.Monitor.verdict t.monitor m)
            then begin
              t.kept <- t.kept + 1;
              t.violations <-
                ( Array.copy cut,
                  t.level,
                  Pastltl.State.to_list st,
                  Pastltl.Monitor.state_to_string m )
                :: t.violations
            end)
          ms)
      t.frontier

  let create ~n ~init spec =
    let monitor = Pastltl.Monitor.compile spec in
    let st = Pastltl.State.of_list init in
    let t =
      { monitor;
        n;
        received = Hashtbl.create 64;
        prefix = Array.make n 0;
        beyond = Array.make n 0;
        ended = Array.make n false;
        level = 0;
        done_ = false;
        frontier = [ (Array.make n 0, st, Sset.singleton (Pastltl.Monitor.init monitor st)) ];
        violations = [];
        kept = 0;
        retired = 0;
        peak_cuts = 1;
        peak_entries = 1;
        steps = 1 }
    in
    record t;
    t

  let advance t =
    let next = Hashtbl.create 16 and order = ref [] and failing = ref false in
    List.iter
      (fun (cut, _, ms) ->
        for tid = 0 to t.n - 1 do
          let k = cut.(tid) + 1 in
          if k <= t.prefix.(tid) then begin
            let m = Hashtbl.find t.received (tid, k) in
            let mvc = Vclock.to_array m.Trace.Message.mvc in
            if List.for_all (fun j -> j = tid || mvc.(j) <= cut.(j)) (List.init t.n Fun.id)
            then begin
              let succ = Array.copy cut in
              succ.(tid) <- k;
              let st =
                match Hashtbl.find_opt next succ with
                | Some (st, _) -> st
                | None ->
                    let _, st, _ = List.find (fun (c, _, _) -> c == cut) t.frontier in
                    Pastltl.State.set st m.Trace.Message.var m.Trace.Message.value
              in
              let stepped =
                Sset.map
                  (fun q ->
                    t.steps <- t.steps + 1;
                    let q = Pastltl.Monitor.step t.monitor q st in
                    if not (Pastltl.Monitor.verdict t.monitor q) then failing := true;
                    q)
                  ms
              in
              match Hashtbl.find_opt next succ with
              | Some (st, old) -> Hashtbl.replace next succ (st, Sset.union old stepped)
              | None ->
                  order := succ :: !order;
                  Hashtbl.replace next succ (st, stepped)
            end
          end
        done)
      t.frontier;
    if !order = [] then t.done_ <- true
    else begin
      t.retired <- t.retired + List.length t.frontier;
      t.level <- t.level + 1;
      t.frontier <-
        List.sort compare !order
        |> List.map (fun cut ->
               let st, ms = Hashtbl.find next cut in
               (cut, st, ms));
      t.peak_cuts <- max t.peak_cuts (List.length t.frontier);
      t.peak_entries <-
        max t.peak_entries
          (List.fold_left (fun acc (_, _, ms) -> acc + Sset.cardinal ms) 0 t.frontier);
      if !failing then record t
    end

  let rec pump t =
    let ready i = t.prefix.(i) >= t.level + 1 || (t.ended.(i) && t.beyond.(i) = 0) in
    if (not t.done_) && List.for_all ready (List.init t.n Fun.id) then begin
      advance t;
      pump t
    end

  let feed t (m : Trace.Message.t) =
    Hashtbl.replace t.received (m.tid, Trace.Message.seq m) m;
    t.beyond.(m.tid) <- t.beyond.(m.tid) + 1;
    while Hashtbl.mem t.received (m.tid, t.prefix.(m.tid) + 1) do
      t.prefix.(m.tid) <- t.prefix.(m.tid) + 1;
      t.beyond.(m.tid) <- t.beyond.(m.tid) - 1
    done;
    pump t

  let finish t =
    Array.fill t.ended 0 t.n true;
    pump t

  let snapshot_lines t =
    ( List.map
        (fun (cut, st, ms) ->
          ( cut,
            Pastltl.State.to_list st,
            List.map Pastltl.Monitor.state_to_string (Sset.elements ms) ))
        t.frontier,
      List.rev t.violations )
end

(* The observer's lattice against the model, or a description of the
   first difference. *)
let lattice_diff o (model : Set_model.t) =
  let module O = Predict.Online in
  let s = O.snapshot o and frontier, violations = Set_model.snapshot_lines model in
  let g = O.gc_stats o in
  let checks =
    [ ("level", s.O.snap_level = model.level && O.level o = model.level);
      ("done", s.O.snap_done = model.done_);
      ("frontier lines", s.O.snap_frontier = frontier);
      ("violation lines", s.O.snap_violations = violations);
      ( "violations",
        List.map
          (fun (v : O.violation) ->
            ( v.cut,
              v.level,
              Pastltl.State.to_list v.state,
              Pastltl.Monitor.state_to_string v.monitor_state ))
          (O.violations o)
        = violations );
      ("violated", O.violated o = (violations <> []));
      ( "gc_stats",
        g
        = { O.retired_cuts = model.retired;
            peak_frontier_cuts = model.peak_cuts;
            peak_frontier_entries = model.peak_entries;
            monitor_steps = model.steps } );
      ( "snapshot counters",
        s.O.snap_retired_cuts = model.retired
        && s.O.snap_peak_frontier_cuts = model.peak_cuts
        && s.O.snap_peak_frontier_entries = model.peak_entries
        && s.O.snap_monitor_steps = model.steps ) ]
  in
  List.find_map (fun (what, ok) -> if ok then None else Some what) checks

(* Feeds [messages] to the observer and the model in lockstep, comparing
   after every feed and after [finish]; midway (at [restore_at]) the
   observer is replaced by its own snapshot restored, which re-interns
   every set.  [Some what] names the first difference. *)
let run_against_model ~spec ~init ~n ?(restore_at = -1) messages =
  let module O = Predict.Online in
  let o = ref (O.create ~nthreads:n ~init ~spec ()) in
  let model = Set_model.create ~n ~init spec in
  let diff = ref (lattice_diff !o model) in
  List.iteri
    (fun i m ->
      if !diff = None then begin
        if i = restore_at then o := O.restore ~spec (O.snapshot !o);
        O.feed !o m;
        Set_model.feed model m;
        diff := Option.map (Printf.sprintf "after feed %d: %s" i) (lattice_diff !o model)
      end)
    messages;
  if !diff = None then begin
    O.finish !o;
    Set_model.finish model;
    diff := Option.map (Printf.sprintf "after finish: %s") (lattice_diff !o model)
  end;
  !diff

(* Specs whose monitor states carry history: [since], intervals, [once]
   and [prev], so a cut's paths reach several monitor states. *)
let multi_state_specs =
  temporal_specs_pool
  @ List.map Pastltl.Fparser.parse
      [ "[a == 1, b == 2) and ((c == 1) since (a >= 1))";
        "(once (a == 2)) ==> [b == 1, c == 3)";
        "((a > b) since (c == 1)) or [b == 2, a == 3)";
        "(prev (b == 1)) ==> ((once (a == 3)) or [c == 1, c == 2))" ]

let prop_automaton_matches_model =
  QCheck.Test.make ~name:"automaton == set-by-set stepping, after every feed" ~count:150
    arb_random_program (fun ((_, _, spec_seed) as rp) ->
      let comp = comp_of_random rp in
      let spec = List.nth multi_state_specs (spec_seed mod List.length multi_state_specs) in
      let messages =
        Observer.Channel.shuffle ~seed:spec_seed (Observer.Computation.messages comp)
      in
      match
        run_against_model ~spec
          ~init:(Pastltl.State.to_list (Observer.Computation.init_state comp))
          ~n:(Observer.Computation.nthreads comp)
          ~restore_at:(spec_seed mod (List.length messages + 1))
          messages
      with
      | None -> true
      | Some what -> QCheck.Test.fail_report what)

(* Many letters: [a], [b] and [c] are written in turn, each a digit of
   a base-21 counter ([a] the fastest), so the 60 atoms [a >= k],
   [b >= k], [c >= k] (k = 1..20) take a new joint value every few
   messages, 9,261 in all.  Every letter reaches a monitor state of its
   own, so the automaton's tables outgrow a few cuts' needs over and
   over and are compacted; kept, they would grow with the stream for
   its first 27,783 messages.  With [threads = 2] the writes alternate
   between two threads, each learning the other's clock on every other
   write of its own, so the lattice stays a few cuts wide; with
   [threads = 1] it is a chain. *)
let many_letter_stream ~threads n =
  let clocks = Array.init threads (fun _ -> Array.make threads 0) in
  List.init n (fun i ->
      let tid = i mod threads in
      let c = clocks.(tid) in
      c.(tid) <- c.(tid) + 1;
      if threads = 2 && i mod 4 >= 2 then c.(1 - tid) <- clocks.(1 - tid).(1 - tid);
      let digit = i mod 3 in
      Trace.Message.make ~eid:i ~tid
        ~var:[| "a"; "b"; "c" |].(digit)
        ~value:(i / [| 3; 63; 1323 |].(digit) mod 21)
        ~mvc:(Vclock.of_array (Array.copy c)))

(* Violated on most cuts, or (with [a >= 0]) never. *)
let many_letter_spec ~clean =
  List.init 20 (fun k ->
      Printf.sprintf "((a >= %d) and (b >= %d) and (c >= %d))" (k + 1) (20 - k)
        ((k * 7 mod 20) + 1))
  |> String.concat " or "
  |> Printf.sprintf "[a >= 20, b >= 20) or %s%s" (if clean then "(a >= 0) or " else "")
  |> Pastltl.Fparser.parse

(* The model comparison across those compactions, so ids are renumbered
   under the frontier's feet (and restored midway). *)
let test_automaton_compacts_like_model () =
  match
    run_against_model ~spec:(many_letter_spec ~clean:false)
      ~init:[ ("a", 0); ("b", 0); ("c", 0) ] ~n:2
      ~restore_at:1500
      (Observer.Channel.bounded_reorder ~seed:4 ~window:8 (many_letter_stream ~threads:2 4000))
  with
  | None -> ()
  | Some what -> Alcotest.fail what

(* Specs as wide as letters get: 32 atoms (a bit-mask letter with room
   to spare) and 66 (more atoms than an int has bits, so letters are
   interned).  The atoms are [a == k], [b != k], [c == k] for k = 0, 1,
   ..., three to a clause [(once A) ==> [B, C)] (two left over make an
   interval); constants past the programs' values keep most atoms
   constant, the low ones move. *)
let wide_spec ~natoms =
  let atom i =
    let k = i / 3 in
    match i mod 3 with
    | 0 -> Printf.sprintf "(a == %d)" k
    | 1 -> Printf.sprintf "(b != %d)" k
    | _ -> Printf.sprintf "(c == %d)" k
  in
  List.init ((natoms + 2) / 3) (fun c ->
      match natoms - (3 * c) with
      | 1 -> Printf.sprintf "(once %s)" (atom (3 * c))
      | 2 -> Printf.sprintf "[%s, %s)" (atom (3 * c)) (atom ((3 * c) + 1))
      | _ ->
          Printf.sprintf "((once %s) ==> [%s, %s))" (atom (3 * c))
            (atom ((3 * c) + 1))
            (atom ((3 * c) + 2)))
  |> String.concat " and "
  |> Pastltl.Fparser.parse

let test_wide_specs_match_model () =
  List.iter
    (fun natoms ->
      let spec = wide_spec ~natoms in
      Alcotest.(check int) "atoms" natoms
        (Array.length (Pastltl.Monitor.atoms (Pastltl.Monitor.compile spec)));
      List.iter
        (fun seed ->
          let rp = QCheck.Gen.generate1 ~rand:(Random.State.make [| seed |]) gen_random_program in
          let comp = comp_of_random rp in
          match
            run_against_model ~spec
              ~init:(Pastltl.State.to_list (Observer.Computation.init_state comp))
              ~n:(Observer.Computation.nthreads comp) ~restore_at:3
              (Observer.Channel.shuffle ~seed (Observer.Computation.messages comp))
          with
          | None -> ()
          | Some what -> Alcotest.failf "%d atoms, seed %d: %s" natoms seed what)
        (List.init 12 Fun.id))
    [ 32; 66 ]

(* A snapshot lists each frontier cut once, with all its monitor
   states; one listing a cut twice is malformed and is refused. *)
let test_restore_rejects_repeated_cut () =
  let module O = Predict.Online in
  let spec = Pastltl.Fparser.parse "[a == 1, b == 2)" in
  let o = O.create ~nthreads:2 ~init:[ ("a", 0); ("b", 0) ] ~spec () in
  let s = O.snapshot o in
  ignore (O.restore ~spec s);
  match O.restore ~spec { s with O.snap_frontier = s.O.snap_frontier @ s.O.snap_frontier } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a cut listed twice was restored"

(* {1 Allocation and memory of the automaton} *)

(* The 4-thread lock-counter stream of the benchmark's lattice workload
   (2,500 iterations a thread, 20,000 relevant writes) under its
   invariant: with one memo lookup per transition, [feed] and [finish]
   together allocate about 41 words a message (a copied state and an
   entry per new cut, and the message log).  Stepping every set state
   by state allocated 84. *)
let test_lock_counter_allocation () =
  let program = Tml.Parser.parse_program (Lock_counter.source ~threads:4 ~iters:2_500 ~nops:0) in
  let vars = [ "c"; "x0"; "x1"; "x2"; "x3" ] in
  let r =
    Tml.Vm.run_program ~relevance:(Mvc.Relevance.writes_of_vars vars)
      ~sched:(Tml.Sched.random ~seed:1) program
  in
  let messages = r.Tml.Vm.messages in
  let o =
    Predict.Online.create ~nthreads:4
      ~init:(List.filter (fun (x, _) -> List.mem x vars) program.Tml.Ast.shared)
      ~spec:(Pastltl.Fparser.parse "c <= x0 + x1 + x2 + x3 + 4") ()
  in
  let feed = Predict.Online.feed o in
  let before = Gc.minor_words () in
  List.iter feed messages;
  Predict.Online.finish o;
  let words = (Gc.minor_words () -. before) /. float_of_int (List.length messages) in
  Alcotest.(check bool) "clean" false (Predict.Online.violated o);
  if words > 60. then
    Alcotest.failf "Online.feed allocates %.1f words per message (budget 60)" words

(* The automaton's tables follow the frontier, not the stream: over
   40,000 messages of the many-letter chain (one thread, so the message
   store holds next to nothing and [mem_words] is mostly the
   automaton), the largest [mem_words] of the last 2,000 is no more
   than a quarter above that of messages 2,000 to 4,000, and it stays
   within 25% of what the observer really holds. *)
let test_memo_bounded_by_frontier () =
  let n = 40_000 in
  let o =
    Predict.Online.create ~nthreads:1 ~init:[ ("a", 0); ("b", 0); ("c", 0) ]
      ~spec:(many_letter_spec ~clean:true) ()
  in
  let early = ref 0 and late = ref 0 in
  List.iteri
    (fun i m ->
      Predict.Online.feed o m;
      if i >= 2_000 && i < 4_000 then early := max !early (Predict.Online.mem_words o);
      if i >= n - 2_000 then begin
        late := max !late (Predict.Online.mem_words o);
        if i mod 500 = 0 then begin
          let est = Predict.Online.mem_words o and real = Obj.reachable_words (Obj.repr o) in
          if 5 * est < 4 * real || 4 * est > 5 * real then
            Alcotest.failf "message %d: mem_words %d, reachable words %d" i est real
        end
      end)
    (many_letter_stream ~threads:1 n);
  Alcotest.(check bool) "not violated" false (Predict.Online.violated o);
  if 4 * !late > 5 * !early then
    Alcotest.failf "largest mem_words %d over messages 2,000-4,000, %d over the last 2,000"
      !early !late

let () =
  Alcotest.run "predict"
    [ ( "analyzer",
        [ Alcotest.test_case "landing prediction" `Quick test_landing_prediction;
          Alcotest.test_case "landing baseline misses" `Quick
            test_landing_observed_run_is_clean;
          Alcotest.test_case "xyz prediction" `Quick test_xyz_prediction;
          Alcotest.test_case "true spec" `Quick test_true_spec_never_violated;
          Alcotest.test_case "false spec" `Quick test_false_spec_violated_at_bottom ] );
      ( "counterexamples",
        [ Alcotest.test_case "landing (2 of 3)" `Quick test_landing_counterexamples;
          Alcotest.test_case "xyz (1 of 3)" `Quick test_xyz_counterexamples;
          Alcotest.test_case "run-count fields" `Quick test_counterexample_run_count_fields ] );
      ( "equivalence",
        [ Alcotest.test_case "analyzer = enumeration" `Quick test_analyzer_equals_enumeration;
          Alcotest.test_case "frontier bounded" `Quick test_analyzer_frontier_is_bounded;
          QCheck_alcotest.to_alcotest qcheck_online_vs_enumeration;
          QCheck_alcotest.to_alcotest qcheck_violations_vs_lattice;
          Alcotest.test_case "violation cap = lattice propagation" `Quick
            test_violation_cap_vs_lattice ] );
      ( "race",
        [ Alcotest.test_case "racy counter" `Quick test_racy_counter_races;
          Alcotest.test_case "locked counter" `Quick test_locked_counter_race_free;
          Alcotest.test_case "serial schedule still predicts" `Quick
            test_race_prediction_from_serial_schedule;
          Alcotest.test_case "dekker flags" `Quick test_dekker_sketch_races;
          Alcotest.test_case "read-read" `Quick test_read_read_not_a_race;
          Alcotest.test_case "same thread" `Quick test_same_thread_no_race ] );
      ( "lockgraph",
        [ Alcotest.test_case "bank transfer cycle" `Quick test_bank_transfer_cycle;
          Alcotest.test_case "ordered no cycle" `Quick test_ordered_transfer_no_cycle;
          Alcotest.test_case "single thread" `Quick test_single_thread_two_orders_no_deadlock;
          Alcotest.test_case "three locks" `Quick test_three_lock_cycle ] );
      ( "atomicity",
        [ Alcotest.test_case "unprotected remote write" `Quick
            test_atomicity_remote_unprotected_write;
          Alcotest.test_case "same lock serializable" `Quick
            test_atomicity_same_lock_serializable;
          Alcotest.test_case "stale re-read" `Quick test_atomicity_stale_reread;
          Alcotest.test_case "dirty intermediate read" `Quick
            test_atomicity_remote_read_of_dirty_state;
          Alcotest.test_case "read between reads ok" `Quick
            test_atomicity_remote_read_between_reads_ok;
          Alcotest.test_case "ordered remote ok" `Quick test_atomicity_ordered_remote_ok ] );
      ( "replay",
        [ Alcotest.test_case "counterexamples become schedules" `Quick
            test_replay_counterexamples;
          Alcotest.test_case "wrong values rejected" `Quick test_replay_rejects_wrong_values;
          Alcotest.test_case "short target rejected" `Quick test_replay_rejects_short_target ] );
      ( "automaton",
        [ QCheck_alcotest.to_alcotest prop_automaton_matches_model;
          Alcotest.test_case "compactions = set-by-set stepping" `Quick
            test_automaton_compacts_like_model;
          Alcotest.test_case "32 and 66 atoms = set-by-set stepping" `Quick
            test_wide_specs_match_model;
          Alcotest.test_case "restore refuses a cut listed twice" `Quick
            test_restore_rejects_repeated_cut ] );
      ( "online",
        [ Alcotest.test_case "delivery order: examples" `Quick
            test_online_order_independent_on_examples;
          Alcotest.test_case "blocks until available" `Quick
            test_online_blocks_until_available;
          Alcotest.test_case "incremental progress" `Quick test_online_incremental_progress;
          Alcotest.test_case "gc" `Quick test_online_gc;
          Alcotest.test_case "duplicates" `Quick test_online_duplicate_rejected;
          Alcotest.test_case "missing message" `Quick test_online_missing_message_detected;
          Alcotest.test_case "delivery order: randomized" `Quick
            test_online_order_independent_random;
          Alcotest.test_case "violation cap" `Quick test_online_violation_cap;
          QCheck_alcotest.to_alcotest prop_store_matches_model;
          Alcotest.test_case "mem_words tracks reachable words" `Quick
            test_mem_words_tracks_reachable;
          Alcotest.test_case "memory budget after a wide level" `Quick
            test_budget_after_wide_level;
          Alcotest.test_case "allocation budget of a level" `Quick test_feed_allocation_budget;
          Alcotest.test_case "lock-counter allocation budget" `Quick test_lock_counter_allocation;
          Alcotest.test_case "64 threads, two messages each: budget" `Quick
            test_wide_short_stream_budget;
          Alcotest.test_case "memo bounded by the frontier" `Quick test_memo_bounded_by_frontier;
          Alcotest.test_case "far-ahead messages = Hashtbl model" `Quick
            test_far_ahead_matches_model;
          Alcotest.test_case "forged seq 2^40 stays small" `Quick
            test_forged_seq_stays_small ] );
      ( "liveness",
        [ Alcotest.test_case "eventually" `Quick test_eval_lasso_eventually;
          Alcotest.test_case "always/until" `Quick test_eval_lasso_always_until;
          Alcotest.test_case "next" `Quick test_eval_lasso_next;
          Alcotest.test_case "toggle lasso" `Quick test_find_lassos_in_toggle_program;
          Alcotest.test_case "total on xyz" `Quick test_no_lasso_in_monotone_program ] ) ]

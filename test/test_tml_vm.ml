(* Tests for the TML virtual machine and the reference interpreter:
   semantics of expressions/statements, synchronization, error handling,
   scheduling, and the VM-vs-interpreter differential under identical
   recorded schedules. *)

open Tml

let parse = Parser.parse_program
let rr () = Sched.round_robin ()

let run_src ?fuel ?sched src =
  let sched = match sched with Some s -> s | None -> rr () in
  Vm.run_program ?fuel ~sched (parse src)

let final_of result = result.Vm.final

let check_completed msg (r : Vm.run_result) =
  Alcotest.(check bool) (msg ^ ": completed") true (r.Vm.outcome = Vm.Completed)

(* {1 Sequential semantics} *)

let test_arithmetic () =
  let r =
    run_src
      {| shared a = 0, b = 0, c = 0, d = 0, e = 0;
         thread t {
           a = 7 + 3 * 2;
           b = (7 - 10) / 2;
           c = 17 % 5;
           d = -a;
           e = 0 - 3 % 2;
         } |}
  in
  check_completed "arithmetic" r;
  Alcotest.(check (list (pair string int))) "values"
    [ ("a", 13); ("b", -1); ("c", 2); ("d", -13); ("e", -1) ]
    (final_of r)

let test_comparisons_and_logic () =
  let r =
    run_src
      {| shared a = 0, b = 0, c = 0, d = 0, e = 0, f = 0;
         thread t {
           a = 1 < 2;
           b = 2 <= 1;
           c = 3 == 3 && 4 != 4;
           d = 0 || 7;
           e = !5;
           f = !0;
         } |}
  in
  check_completed "logic" r;
  Alcotest.(check (list (pair string int))) "values"
    [ ("a", 1); ("b", 0); ("c", 0); ("d", 1); ("e", 0); ("f", 1) ]
    (final_of r)

let test_short_circuit () =
  (* The right operand of && must not be evaluated when the left is
     false: evaluating it would divide by zero. *)
  let r =
    run_src
      {| shared a = 0, zero = 0;
         thread t { a = 0 && 1 / zero; } |}
  in
  check_completed "short circuit" r;
  Alcotest.(check (list (pair string int))) "no division" [ ("a", 0); ("zero", 0) ]
    (final_of r)

let test_if_while () =
  let r =
    run_src
      {| shared s = 0;
         thread t {
           local i = 0;
           while (i < 5) {
             if (i % 2 == 0) { s = s + i; }
             i = i + 1;
           }
         } |}
  in
  check_completed "if/while" r;
  Alcotest.(check (list (pair string int))) "sum of evens" [ ("s", 6) ] (final_of r)

let test_locals_are_private () =
  let r =
    run_src
      {| shared out0 = 0, out1 = 0;
         thread t0 { local v = 10; nop 3; out0 = v; }
         thread t1 { local v = 20; nop 3; out1 = v; } |}
  in
  check_completed "locals" r;
  Alcotest.(check (list (pair string int))) "no interference"
    [ ("out0", 10); ("out1", 20) ] (final_of r)

(* {1 Runtime errors} *)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  n = 0 || at 0

let outcome_is_error (r : Vm.run_result) msg_fragment =
  match r.Vm.outcome with
  | Vm.Runtime_error { message; _ } ->
      Alcotest.(check bool)
        (Printf.sprintf "error mentions %S (got %S)" msg_fragment message)
        true
        (contains ~needle:msg_fragment message)
  | o -> Alcotest.failf "expected runtime error, got %a" Vm.pp_outcome o

let test_division_by_zero () =
  let r = run_src {| shared a = 0, zero = 0; thread t { a = 1 / zero; } |} in
  outcome_is_error r "division by zero"

let test_modulo_by_zero () =
  let r = run_src {| shared a = 0, zero = 0; thread t { a = 1 % zero; } |} in
  outcome_is_error r "modulo by zero"

let test_unlock_not_held () =
  let r = run_src {| thread t { unlock m; } |} in
  outcome_is_error r "not held"

let test_silent_loop_detected () =
  let r = run_src {| thread t { local i = 1; while (i) { skip; } } |} in
  outcome_is_error r "silent instruction budget"

(* {1 Scheduling and outcomes} *)

let test_fuel_exhaustion () =
  let r = run_src ~fuel:10 {| shared x = 1; thread t { while (x) { x = 1; } } |} in
  Alcotest.(check bool) "fuel exhausted" true (r.Vm.outcome = Vm.Fuel_exhausted);
  Alcotest.(check int) "steps equal fuel" 10 r.Vm.steps

let test_deadlock_two_locks () =
  (* Force the interleaving that deadlocks bank_transfer: T0 takes la,
     T1 takes lb, then both block. *)
  let script = Sched.[ Pick 0; Pick 1 ] in
  let image = Instrument.instrument_program Programs.bank_transfer in
  let r = Vm.run_image ~sched:(Sched.of_script script) image in
  (match r.Vm.outcome with
  | Vm.Deadlocked tids -> Alcotest.(check (list int)) "both threads blocked" [ 0; 1 ] tids
  | o -> Alcotest.failf "expected deadlock, got %a" Vm.pp_outcome o);
  (* The ordered variant cannot deadlock under any schedule. *)
  let explored = Explore.all_program_runs Programs.bank_transfer_ordered in
  Alcotest.(check bool) "ordered variant never deadlocks" true
    (List.for_all (fun (_, r) -> r.Vm.outcome = Vm.Completed) explored.Explore.runs)

let test_lock_mutual_exclusion () =
  (* With the lock, no update is lost under any seed. *)
  List.iter
    (fun seed ->
      let r =
        Vm.run_program ~sched:(Sched.random ~seed) (Programs.locked_counter ~increments:4)
      in
      check_completed "locked counter" r;
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "seed %d: all increments kept" seed)
        [ ("counter", 8) ] (final_of r))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_racy_counter_loses_updates () =
  (* Some schedule loses an update; exhaustive exploration must find a
     final counter below the maximum. *)
  let explored = Explore.all_program_runs (Programs.racy_counter ~increments:1) in
  let finals =
    List.map
      (fun (_, r) -> List.assoc "counter" r.Vm.final)
      explored.Explore.runs
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "both 1 (lost update) and 2 occur" [ 1; 2 ] finals

let test_reentrant_lock () =
  let r =
    run_src
      {| shared a = 0;
         thread t { sync (m) { sync (m) { a = 1; } } } |}
  in
  check_completed "reentrant sync" r;
  Alcotest.(check (list (pair string int))) "body ran" [ ("a", 1) ] (final_of r)

let test_lock_blocks_other_thread () =
  (* T0 holds m; T1 must not be runnable at its acquire. *)
  let image =
    Instrument.instrument_program
      (parse {| shared a = 0; thread t0 { lock m; a = 1; unlock m; }
                thread t1 { lock m; a = 2; unlock m; } |})
  in
  let vm = Vm.create ~sched:(rr ()) image in
  Vm.step vm 0 (* t0 acquires m *);
  Alcotest.(check (list int)) "t1 blocked" [ 0 ] (Vm.runnable vm);
  Vm.step vm 0 (* a = 1, a constant store *);
  Vm.step vm 0 (* unlock m; t0 then settles onto Halt *);
  Alcotest.(check (list int)) "t1 unblocked after release" [ 1 ] (Vm.runnable vm)

let test_wait_notify () =
  let r = Vm.run_program ~sched:(rr ()) (Programs.producer_consumer ~items:3) in
  check_completed "producer/consumer" r;
  Alcotest.(check (list (pair string int))) "buffer drained"
    [ ("buf", 0); ("full", 0) ] (final_of r)

let test_notify_without_waiter_is_lost () =
  (* t1 parks on its wait only when its settle reaches it; the leading
     nop delays that until after t0's notify, so the notification is
     lost and t1 waits forever — as in Java. *)
  let src =
    {| shared a = 0;
       thread t0 { notify c; a = 1; }
       thread t1 { nop; wait c; a = 2; } |}
  in
  let r =
    Vm.run_image
      ~sched:(Sched.of_script Sched.[ Pick 0; Pick 0; Pick 1 ])
      (Instrument.instrument_program (parse src))
  in
  match r.Vm.outcome with
  | Vm.Deadlocked [ 1 ] -> ()
  | o -> Alcotest.failf "expected t1 deadlocked, got %a" Vm.pp_outcome o

let test_notify_wakes_all_waiters () =
  (* Distinct target variables: a shared counter would race between the
     two woken threads and lose an update. *)
  let src =
    {| shared a1 = 0, a2 = 0;
       thread w1 { wait c; a1 = 1; }
       thread w2 { wait c; a2 = 1; }
       thread n  { nop; notify c; } |}
  in
  let r = Vm.run_image ~sched:(rr ()) (Instrument.instrument_program (parse src)) in
  check_completed "notify-all" r;
  Alcotest.(check (list (pair string int))) "both woke" [ ("a1", 1); ("a2", 1) ] (final_of r)

let test_choose_follows_scheduler () =
  let src = {| shared a = 0; thread t { a = choose(10, 20, 30); } |} in
  let image = Instrument.instrument_program (parse src) in
  List.iteri
    (fun branch expected ->
      let r = Vm.run_image ~sched:(Sched.of_script Sched.[ Choice branch; Pick 0 ]) image in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "branch %d" branch)
        [ ("a", expected) ] r.Vm.final)
    [ 10; 20; 30 ]

let test_step_not_runnable_rejected () =
  let rejects vm tid =
    Alcotest.check_raises
      (Printf.sprintf "thread %d" tid)
      (Invalid_argument (Printf.sprintf "Vm.step: thread %d is not runnable" tid))
      (fun () -> Vm.step vm tid)
  in
  let image = Instrument.instrument_program (parse {| thread t { nop; } |}) in
  let vm = Vm.create ~sched:(rr ()) image in
  rejects vm 3;
  rejects vm 1;
  rejects vm (-1);
  Vm.step vm 0 (* the nop; t then settles onto Halt *);
  rejects vm 0;
  (* A thread parked at an acquire of a lock another thread holds. *)
  let image =
    Instrument.instrument_program
      (parse {| shared a = 0; thread t0 { lock m; a = 1; unlock m; }
                thread t1 { lock m; a = 2; unlock m; } |})
  in
  let vm = Vm.create ~sched:(rr ()) image in
  Vm.step vm 0 (* t0 acquires m *);
  rejects vm 1;
  (* After a runtime error no thread may step, not even one that was
     runnable before it. *)
  let image =
    Instrument.instrument_program
      (parse {| shared a = 0; thread t0 { unlock m; } thread t1 { a = 1; } |})
  in
  let vm = Vm.create ~sched:(rr ()) image in
  Alcotest.(check (list int)) "both runnable before the error" [ 0; 1 ] (Vm.runnable vm);
  Vm.step vm 0 (* unlock of a lock not held *);
  (match Vm.finished vm with
  | Some (Vm.Runtime_error { tid = 0; _ }) -> ()
  | _ -> Alcotest.fail "expected a runtime error in T0");
  List.iter (rejects vm) [ 0; 1; 2; -1 ]

(* {1 Dynamic threads (spawn/join via desugaring)} *)

let test_desugar_shape () =
  let p = Programs.fork_join ~workers:2 in
  Alcotest.(check bool) "uses dynamic threads" true (Desugar.uses_dynamic_threads p);
  let d = Desugar.desugar p in
  Alcotest.(check bool) "desugared is static" false (Desugar.uses_dynamic_threads d);
  Alcotest.(check bool) "gate variables declared" true
    (List.mem_assoc (Desugar.spawn_gate "worker0") d.Ast.shared
    && List.mem_assoc (Desugar.join_flag "worker1") d.Ast.shared);
  Alcotest.(check bool) "gates are sync-namespace vars" true
    (Trace.Types.is_sync_var (Desugar.spawn_gate "worker0"));
  let plain = parse {| shared x = 0; thread t { x = 1; } |} in
  Alcotest.(check bool) "static program unchanged" true
    (Ast.equal_program plain (Desugar.desugar plain))

let test_spawn_orders_child_after_parent () =
  (* The worker must see the master's pre-spawn write. *)
  let src =
    {| shared a = 0, b = 0;
       thread master { a = 41; spawn worker; }
       thread worker { b = a + 1; } |}
  in
  List.iter
    (fun seed ->
      let r = Vm.run_program ~sched:(Sched.random ~seed) (parse src) in
      check_completed "spawn" r;
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "seed %d: worker saw the write" seed)
        [ ("a", 41); ("b", 42) ] (final_of r))
    [ 1; 2; 3; 4; 5 ]

let test_fork_join_deterministic () =
  (* join makes the total schedule-independent: 1 + 4 + 9 = 14. *)
  List.iter
    (fun seed ->
      let r = Vm.run_program ~sched:(Sched.random ~seed) (Programs.fork_join ~workers:3) in
      check_completed "fork/join" r;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: total" seed)
        14
        (List.assoc "total" r.Vm.final))
    [ 7; 8; 9; 10; 11; 12 ]

let test_spawn_typecheck () =
  let unknown = parse {| thread t { spawn ghost; } |} in
  Alcotest.(check bool) "unknown target rejected" true
    (Result.is_error (Typecheck.check unknown));
  let self = parse {| thread t { join t; } |} in
  Alcotest.(check bool) "self join rejected" true (Result.is_error (Typecheck.check self))

let test_unspawned_thread_never_runs () =
  (* worker is dormant and nobody spawns it: the program cannot finish,
     and the worker's effect never happens. *)
  let src =
    {| shared a = 0, dummy = 0;
       thread main2 { a = 1; join worker2; }
       thread worker2 { dummy = 9; }
       thread igniter { spawn worker2; } |}
  in
  (* With the igniter present everything completes... *)
  let r = Vm.run_program ~sched:(rr ()) (parse src) in
  check_completed "ignited" r;
  Alcotest.(check int) "worker ran" 9 (List.assoc "dummy" r.Vm.final);
  (* ...without it (spawn statically present but never executed) the
     dormant thread spins until fuel runs out. *)
  let src_orphan =
    {| shared dummy = 0;
       thread main2 { if (0 == 1) { spawn worker2; } }
       thread worker2 { dummy = 9; } |}
  in
  let r = Vm.run_program ~fuel:500 ~sched:(rr ()) (parse src_orphan) in
  Alcotest.(check bool) "orphan spins" true (r.Vm.outcome = Vm.Fuel_exhausted);
  Alcotest.(check int) "orphan never ran" 0 (List.assoc "dummy" r.Vm.final)

let test_spawn_unsynchronized_races () =
  let serial =
    Sched.make_raw ~name:"serial"
      ~pick_fn:(fun runnable _ -> runnable.(0))
      ~choose_fn:(fun _ -> 0)
  in
  let r = Vm.run_program ~sched:serial Programs.spawn_unsynchronized in
  check_completed "spawn-unsynchronized" r;
  let report = Predict.Race.detect (Option.get r.Vm.exec) in
  Alcotest.(check (list string)) "cell is racy" [ "cell" ] report.Predict.Race.racy_vars;
  (* The pre-spawn write is ordered before the worker; only the
     post-spawn write races with it. *)
  Alcotest.(check int) "exactly one racy pair" 1 (List.length report.Predict.Race.races)

let test_philosophers () =
  let serial =
    Sched.make_raw ~name:"serial"
      ~pick_fn:(fun runnable _ -> runnable.(0))
      ~choose_fn:(fun _ -> 0)
  in
  let r = Vm.run_program ~sched:serial (Programs.philosophers ~n:3) in
  check_completed "philosophers serial" r;
  Alcotest.(check int) "all ate" 3 (List.assoc "meals" r.Vm.final);
  let report = Predict.Lockgraph.analyze (Option.get r.Vm.exec) in
  Alcotest.(check (list (list string))) "fork cycle predicted"
    [ [ "fork0"; "fork1"; "fork2" ] ]
    report.Predict.Lockgraph.cycles;
  (* Exhaustive exploration of the 2-philosopher instance finds a real
     deadlock. *)
  let explored = Explore.all_program_runs (Programs.philosophers ~n:2) in
  Alcotest.(check bool) "some schedule deadlocks" true
    (List.exists
       (fun (_, res) ->
         match res.Vm.outcome with Vm.Deadlocked _ -> true | _ -> false)
       explored.Explore.runs)

(* {1 Instrumentation transparency} *)

let programs_pool =
  [ ("landing", Programs.landing_bounded);
    ("xyz", Programs.xyz);
    ("racy", Programs.racy_counter ~increments:2);
    ("locked", Programs.locked_counter ~increments:2);
    ("peterson", Programs.peterson);
    ("dekker", Programs.dekker_sketch);
    ("producer-consumer", Programs.producer_consumer ~items:2);
    ("pipeline", Programs.pipeline ~stages:3);
    ("landing-full", Programs.landing_full ~rounds:2) ]

let test_instrumentation_preserves_results () =
  (* Record a schedule on the instrumented image, replay it on the plain
     one: same outcome, same final shared state, no messages. *)
  List.iter
    (fun (name, program) ->
      List.iter
        (fun seed ->
          let image = Compile.compile program in
          let instrumented = Instrument.instrument image in
          let sched, get_script = Sched.recording (Sched.random ~seed) in
          let ri = Vm.run_image ~fuel:2_000 ~sched instrumented in
          let rp = Vm.run_image ~fuel:2_000 ~sched:(Sched.of_script (get_script ())) image in
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d: same outcome" name seed)
            true (ri.Vm.outcome = rp.Vm.outcome);
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "%s seed %d: same final state" name seed)
            ri.Vm.final rp.Vm.final;
          Alcotest.(check int)
            (Printf.sprintf "%s seed %d: plain image emits nothing" name seed)
            0
            (List.length rp.Vm.messages))
        [ 11; 22; 33 ])
    programs_pool

(* {1 Generated programs}

   The ledger's program shape, generated here so the suite does not
   depend on the bench tree: [threads] threads, each looping [iters]
   times over a counter increment under one of [locks] locks, a write of
   its own cell, a read of its neighbour's cell and [nops] internal
   events. *)

let lock_counter_source ~threads ~iters ~nops ~locks =
  let b = Buffer.create 4096 in
  Buffer.add_string b "shared c = 0";
  for t = 0 to threads - 1 do
    Printf.bprintf b ", x%d = 0" t
  done;
  Buffer.add_string b ";\n";
  for t = 0 to threads - 1 do
    Printf.bprintf b
      "thread t%d { local i = 0; local r = 0;\n\
      \  while (i < %d) { sync (m%d) { c = c + 1; } x%d = i + 1; r = x%d; %s i = i + 1; } }\n"
      t iters (t mod locks) t
      ((t + 1) mod threads)
      (String.concat " " (List.init nops (fun _ -> "nop;")))
  done;
  Buffer.contents b

let lock_counter ~threads = parse (lock_counter_source ~threads ~iters:2 ~nops:2 ~locks:4)

(* {1 VM vs reference interpreter differential}

   The interpreter computes enabledness from its own work stack and lock
   table, so requiring both to offer the scheduler the same runnable
   list at every scheduling point pins the VM's runnable scan, lock
   state and termination test to the oracle. *)

(* [inner], logging every runnable set it is offered, as a list. *)
let logging inner =
  let offered = ref [] in
  ( Sched.make_raw ~name:(Sched.name inner ^ "+log")
      ~pick_fn:(fun runnable count ->
        offered := List.init count (Array.get runnable) :: !offered;
        Sched.pick inner ~runnable ~count)
      ~choose_fn:(fun k -> Sched.choose inner k),
    fun () -> List.rev !offered )

let check_same_run tag (rv : Vm.run_result) (ri : Vm.run_result) =
  Alcotest.(check bool) (tag "same outcome") true (rv.Vm.outcome = ri.Vm.outcome);
  Alcotest.(check (list (pair string int))) (tag "same final state") rv.Vm.final ri.Vm.final;
  Alcotest.(check int) (tag "same steps") rv.Vm.steps ri.Vm.steps;
  let events r =
    match r.Vm.exec with
    | Some e -> Array.to_list (Trace.Exec.events e)
    | None -> []
  in
  Alcotest.(check bool) (tag "same event sequence") true
    (List.equal Trace.Event.equal (events rv) (events ri));
  Alcotest.(check bool) (tag "same messages") true
    (List.equal Trace.Message.equal rv.Vm.messages ri.Vm.messages)

(* Run [program] on the VM under [sched], then on the interpreter under
   the recorded script. *)
let check_differential ?fuel name program sched =
  let recorded, get_script = Sched.recording sched in
  let vm_sched, vm_offered = logging recorded in
  let rv = Vm.run_program ?fuel ~sched:vm_sched program in
  let interp_sched, interp_offered = logging (Sched.of_script (get_script ())) in
  let ri = Interp.run_program ?fuel ~sched:interp_sched program in
  let tag what = Printf.sprintf "%s under %s: %s" name (Sched.name sched) what in
  Alcotest.(check (list (list int))) (tag "same runnable lists") (interp_offered ())
    (vm_offered ());
  check_same_run tag rv ri

let test_vm_vs_interp () =
  List.iter
    (fun (name, program) ->
      List.iter
        (fun seed -> check_differential ~fuel:2_000 name program (Sched.random ~seed))
        [ 1; 2; 3; 4; 5; 42; 99; 1234 ])
    programs_pool

let test_vm_vs_interp_round_robin () =
  List.iter
    (fun (name, program) -> check_differential ~fuel:2_000 name program (rr ()))
    programs_pool

let parity_programs =
  programs_pool
  @ [ ("lock-counter-16", lock_counter ~threads:16);
      ("lock-counter-64", lock_counter ~threads:64);
      ( "reentrant",
        parse
          {| shared a = 0;
             thread t0 { sync (m) { sync (m) { a = a + 1; } } }
             thread t1 { sync (m) { a = a + 1; sync (m) { a = a + 1; } } }
             thread t2 { lock m; lock m; a = a + 1; unlock m; a = a + 1; unlock m; } |} );
      ( "lost-notification",
        parse
          {| shared a = 0;
             thread t0 { notify c; a = 1; }
             thread t1 { nop; wait c; a = 2; } |} );
      ( "notify-all",
        parse
          {| shared a1 = 0, a2 = 0;
             thread w1 { wait c; a1 = 1; }
             thread w2 { wait c; a2 = 1; }
             thread n  { nop; notify c; } |} );
      ("two-lock-deadlock", Programs.bank_transfer);
      ( "unlock-not-held",
        parse
          {| shared a = 0;
             thread t0 { a = 1; unlock m; }
             thread t1 { lock m; a = 2; unlock m; } |} ) ]

let test_runnable_parity () =
  List.iter
    (fun (name, program) ->
      List.iter
        (fun seed ->
          check_differential name program (Sched.random ~seed);
          check_differential name program (Sched.random_biased ~seed ~stickiness:3))
        [ 1; 2; 3; 7; 42 ])
    parity_programs

(* After every step, the runnable set the VM maintains equals a scan
   of every thread from scratch. *)
let test_maintained_runnable () =
  List.iter
    (fun (name, program) ->
      let image = Instrument.instrument_program program in
      List.iter
        (fun seed ->
          let vm = Vm.create ~sched:(rr ()) image in
          let state = Random.State.make [| seed |] in
          let rec go k =
            let runnable = Vm.runnable vm in
            Alcotest.(check (list int))
              (Printf.sprintf "%s seed %d, after %d steps" name seed k)
              (Vm.rescan_runnable vm) runnable;
            if runnable <> [] && k < 2_000 then begin
              Vm.step vm (List.nth runnable (Random.State.int state (List.length runnable)));
              go (k + 1)
            end
          in
          go 0)
        [ 1; 2; 3; 7; 42 ])
    parity_programs

(* {1 Golden schedules} *)

(* One digest over everything a seeded run fixes: the recorded script,
   the emitted messages, the final shared state, the step count and the
   outcome. *)
let run_digest (r : Vm.run_result) script =
  let msg m = Format.asprintf "%a" Trace.Message.pp m in
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [ Format.asprintf "%a" Sched.pp_script script;
            String.concat "\n" (List.map msg r.Vm.messages);
            String.concat "," (List.map (fun (x, v) -> Printf.sprintf "%s=%d" x v) r.Vm.final);
            string_of_int r.Vm.steps;
            Format.asprintf "%a" Vm.pp_outcome r.Vm.outcome ]))

(* Computed with the string-keyed lock table and the list-built runnable
   set the VM had before its scheduling step became array-indexed. *)
let golden_digests =
  [ (1, "8496ff5537d18de39969f75db3699bb9");
    (2, "2a56e2691d1503a56f9c11fe7b0b9bad");
    (3, "52afa9b5bcca312535769495394f1510");
    (4, "15a0ed509fb813890c5307e89ce5e7d7");
    (5, "b78f5e559f5fc068022921d65f709af7") ]

let test_golden_schedules () =
  let image = Instrument.instrument_program (lock_counter ~threads:64) in
  List.iter
    (fun (seed, expected) ->
      let sched, get_script = Sched.recording (Sched.random ~seed) in
      let r = Vm.run_image ~sched image in
      check_completed (Printf.sprintf "seed %d" seed) r;
      Alcotest.(check string) (Printf.sprintf "seed %d: digest" seed) expected
        (run_digest r (get_script ())))
    golden_digests

(* The scheduler [check] uses is a plain [random], not a recording one:
   it must make the same picks as the recorded run the digests pin. *)
let test_golden_plain_random () =
  let image = Instrument.instrument_program (lock_counter ~threads:64) in
  let msg m = Format.asprintf "%a" Trace.Message.pp m in
  List.iter
    (fun (seed, _) ->
      let tag what = Printf.sprintf "seed %d: %s" seed what in
      let recorded, _ = Sched.recording (Sched.random ~seed) in
      let rr = Vm.run_image ~sched:recorded image in
      let rp = Vm.run_image ~sched:(Sched.random ~seed) image in
      check_completed (tag "plain random") rp;
      Alcotest.(check (list string)) (tag "same messages") (List.map msg rr.Vm.messages)
        (List.map msg rp.Vm.messages);
      Alcotest.(check (list (pair string int))) (tag "same final state") rr.Vm.final
        rp.Vm.final;
      Alcotest.(check int) (tag "same steps") rr.Vm.steps rp.Vm.steps;
      Alcotest.(check bool) (tag "same outcome") true (rr.Vm.outcome = rp.Vm.outcome))
    golden_digests

let () =
  Alcotest.run "tml-vm"
    [ ( "sequential",
        [ Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "comparisons and logic" `Quick test_comparisons_and_logic;
          Alcotest.test_case "short circuit" `Quick test_short_circuit;
          Alcotest.test_case "if/while" `Quick test_if_while;
          Alcotest.test_case "locals are private" `Quick test_locals_are_private ] );
      ( "errors",
        [ Alcotest.test_case "division by zero" `Quick test_division_by_zero;
          Alcotest.test_case "modulo by zero" `Quick test_modulo_by_zero;
          Alcotest.test_case "unlock not held" `Quick test_unlock_not_held;
          Alcotest.test_case "silent loop" `Quick test_silent_loop_detected ] );
      ( "scheduling",
        [ Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
          Alcotest.test_case "deadlock" `Quick test_deadlock_two_locks;
          Alcotest.test_case "mutual exclusion" `Quick test_lock_mutual_exclusion;
          Alcotest.test_case "racy counter loses updates" `Quick test_racy_counter_loses_updates;
          Alcotest.test_case "reentrant lock" `Quick test_reentrant_lock;
          Alcotest.test_case "lock blocks" `Quick test_lock_blocks_other_thread;
          Alcotest.test_case "wait/notify" `Quick test_wait_notify;
          Alcotest.test_case "lost notification" `Quick test_notify_without_waiter_is_lost;
          Alcotest.test_case "notify-all" `Quick test_notify_wakes_all_waiters;
          Alcotest.test_case "choose" `Quick test_choose_follows_scheduler;
          Alcotest.test_case "step validation" `Quick test_step_not_runnable_rejected ] );
      ( "dynamic-threads",
        [ Alcotest.test_case "desugar shape" `Quick test_desugar_shape;
          Alcotest.test_case "spawn orders child" `Quick test_spawn_orders_child_after_parent;
          Alcotest.test_case "fork/join deterministic" `Quick test_fork_join_deterministic;
          Alcotest.test_case "typecheck" `Quick test_spawn_typecheck;
          Alcotest.test_case "orphan dormant thread" `Quick test_unspawned_thread_never_runs;
          Alcotest.test_case "unsynchronized spawn races" `Quick
            test_spawn_unsynchronized_races;
          Alcotest.test_case "philosophers" `Quick test_philosophers ] );
      ( "instrumentation",
        [ Alcotest.test_case "transparency" `Quick test_instrumentation_preserves_results ] );
      ( "differential",
        [ Alcotest.test_case "VM = interpreter (random)" `Quick test_vm_vs_interp;
          Alcotest.test_case "VM = interpreter (round robin)" `Quick
            test_vm_vs_interp_round_robin;
          Alcotest.test_case "runnable-set parity" `Quick test_runnable_parity;
          Alcotest.test_case "maintained runnable set = rescan" `Quick
            test_maintained_runnable ] );
      ( "golden",
        [ Alcotest.test_case "64-thread lock counter schedules" `Quick test_golden_schedules;
          Alcotest.test_case "same schedules under plain random" `Quick
            test_golden_plain_random ] ) ]

(* Benchmark and figure-regeneration harness.

   One section per experiment in DESIGN.md's experiment index (E1-E9):
   the paper's two content figures (Figs. 5 and 6 with Examples 1 and 2)
   are regenerated verbatim, and every quantitative claim the paper
   makes in prose is measured — detection probability of observed-run
   monitoring vs prediction, frontier memory of the level-by-level
   analysis, and the cost of the Section 3.2 message-passing
   interpretation.  Instrumentation overhead is measured by the ledger
   (bench/ledger): [tml.vm] against [mvc.emit] on check-wide.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- E6      # one experiment by id
     dune exec bench/main.exe -- perf    # only the Bechamel timing runs

   Add [--json FILE] to also write every recorded (experiment, metric,
   value) triple as a JSON array for machine consumption.
*)

open Bechamel
open Toolkit

let section id title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s - %s\n" id title;
  Printf.printf "================================================================\n%!"

(* {1 Machine-readable results} *)

let json_records : (string * string * float) list ref = ref []

let record ~experiment ~metric value =
  json_records := (experiment, metric, value) :: !json_records

let write_json path =
  let records = List.rev !json_records in
  let oc = open_out path in
  output_string oc "[";
  List.iteri
    (fun i (e, m, v) ->
      Printf.fprintf oc "%s\n  {\"experiment\": %S, \"metric\": %S, \"value\": %.6g}"
        (if i = 0 then "" else ",")
        e m v)
    records;
  output_string oc "\n]\n";
  close_out oc;
  Printf.printf "\n%d result records written to %s\n" (List.length records) path

(* {1 Bechamel helpers} *)

(* Runs a list of tests and returns (name, ns/run) sorted by name. *)
let measure ?(quota = 0.3) tests =
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None ~stabilize:false ()
  in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results =
    List.concat_map
      (fun test ->
        List.map
          (fun elt ->
            let m = Benchmark.run cfg Instance.[ monotonic_clock ] elt in
            let est = Analyze.one ols Instance.monotonic_clock m in
            let ns =
              match Analyze.OLS.estimates est with
              | Some [ slope ] -> slope
              | Some _ | None -> nan
            in
            (Test.Elt.name elt, ns))
          (Test.elements test))
      tests
  in
  List.sort compare results

let pp_ns ns =
  if ns >= 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
  else Printf.sprintf "%8.1f ns" ns

(* {1 E1 / E2: the paper's worked examples} *)

let e1 () =
  section "E1" "Example 1 / Figs. 1 and 5: landing controller";
  print_string
    (Jmpax.Report.example_report ~spec:Pastltl.Formula.landing_spec
       ~program:Tml.Programs.landing_bounded ~script:Tml.Programs.landing_observed);
  print_string
    "paper: 6 lattice states, 3 runs, 2 predicted violations from 1 clean run.\n"

let e2 () =
  section "E2" "Example 2 / Fig. 6: the x/y/z program";
  print_string
    (Jmpax.Report.example_report ~spec:Pastltl.Formula.xyz_spec ~program:Tml.Programs.xyz
       ~script:Tml.Programs.xyz_observed);
  print_string
    "paper: 7 lattice states, 3 runs, the rightmost violating; clocks \
     (1,0),(1,1),(1,2),(2,0).\n"

(* {1 E3: Algorithm A throughput} *)

type action = A_internal | A_read of string | A_write of string

let synth_events ~nthreads ~nvars ~n ~seed =
  let state = Random.State.make [| seed; nthreads; nvars; n |] in
  let var i = Printf.sprintf "v%d" i in
  Array.init n (fun _ ->
      let tid = Random.State.int state nthreads in
      let x = var (Random.State.int state nvars) in
      let a =
        match Random.State.int state 8 with
        | 0 -> A_internal
        | 1 | 2 | 3 -> A_read x
        | _ -> A_write x
      in
      (tid, a))

let replay_algorithm ~relevance ~nthreads events =
  let algo = Mvc.Algorithm.create ~nthreads ~relevance in
  Array.iter
    (fun (tid, a) ->
      let kind =
        match a with
        | A_internal -> Trace.Event.Internal
        | A_read x -> Trace.Event.Read (x, 0)
        | A_write x -> Trace.Event.Write (x, 1)
      in
      ignore (Mvc.Algorithm.process algo tid kind))
    events

let e3 () =
  section "E3" "Algorithm A (Fig. 2) throughput: ns per shared-memory event";
  let n = 1000 in
  let tests =
    List.concat_map
      (fun nthreads ->
        List.map
          (fun nvars ->
            let events = synth_events ~nthreads ~nvars ~n ~seed:42 in
            let relevance = Mvc.Relevance.all_writes in
            Test.make
              ~name:(Printf.sprintf "threads=%2d vars=%3d" nthreads nvars)
              (Staged.stage (fun () -> replay_algorithm ~relevance ~nthreads events)))
          [ 4; 64 ])
      [ 2; 4; 8; 16 ]
  in
  Printf.printf "%-22s %12s %14s\n" "configuration" "per batch" "per event";
  List.iter
    (fun (name, ns) ->
      record ~experiment:"E3" ~metric:(name ^ " ns/event") (ns /. float_of_int n);
      Printf.printf "%-22s %s %11.1f ns\n" name (pp_ns ns) (ns /. float_of_int n))
    (measure tests);
  Printf.printf
    "series: cost per event grows with thread count (MVC ops are O(threads)).\n"

(* {1 E4: the Section 3.2 interpretation} *)

let e4 () =
  section "E4" "Distributed interpretation (Fig. 3) vs Algorithm A";
  let nthreads = 4 and nvars = 8 and n = 400 in
  let events = synth_events ~nthreads ~nvars ~n ~seed:7 in
  (* Correctness first: both must agree clock-for-clock. *)
  let b = Trace.Exec.builder ~nthreads ~init:[] in
  Array.iter
    (fun (tid, a) ->
      match a with
      | A_internal -> ignore (Trace.Exec.add_internal b tid)
      | A_read x -> ignore (Trace.Exec.add_read b tid x 0)
      | A_write x -> ignore (Trace.Exec.add_write b tid x 1))
    events;
  let exec = Trace.Exec.freeze b in
  (match
     Dsim.Simulate.compare_with_algorithm ~relevance:Mvc.Relevance.all_writes exec
   with
  | Ok stats ->
      Printf.printf
        "network == Algorithm A on %d events; %d protocol messages, %d hidden\n"
        stats.Dsim.Simulate.events stats.Dsim.Simulate.packets stats.Dsim.Simulate.hidden
  | Error d ->
      Printf.printf "DIVERGENCE at e%d (%s)!\n" d.Dsim.Simulate.eid d.Dsim.Simulate.where);
  let tests =
    [ Test.make ~name:"algorithm-A"
        (Staged.stage (fun () ->
             replay_algorithm ~relevance:Mvc.Relevance.all_writes ~nthreads events));
      Test.make ~name:"message-passing"
        (Staged.stage (fun () ->
             ignore (Dsim.Simulate.run ~relevance:Mvc.Relevance.all_writes exec))) ]
  in
  let results = measure tests in
  Printf.printf "%-18s %12s\n" "implementation" "per batch";
  List.iter (fun (name, ns) -> Printf.printf "%-18s %s\n" name (pp_ns ns)) results;
  (match results with
  | [ (_, a); (_, m) ] ->
      Printf.printf
        "shape: the 3-messages-per-access interpretation costs ~%.1fx Algorithm A.\n"
        (m /. a)
  | _ -> ())

(* {1 E6: detection probability, JPaX baseline vs JMPaX prediction} *)

let print_rate_lines table =
  List.iter
    (fun line ->
      if String.length line >= 9 && String.sub line 0 9 = "detection" then
        print_endline line)
    (String.split_on_char '\n' table)

let e6 () =
  section "E6"
    "Detection: observed-run monitoring (JPaX) vs prediction (JMPaX), random schedules";
  Printf.printf "-- landing controller (rounds=3), property of Example 1, 100 seeds --\n";
  print_rate_lines
    (Jmpax.Report.detection_table ~spec:Pastltl.Formula.landing_spec
       ~program:(Tml.Programs.landing_full ~rounds:3)
       ~seeds:(List.init 100 (fun i -> i)));
  Printf.printf "-- x/y/z program, property of Example 2, 100 seeds --\n";
  print_rate_lines
    (Jmpax.Report.detection_table ~spec:Pastltl.Formula.xyz_spec ~program:Tml.Programs.xyz
       ~seeds:(List.init 100 (fun i -> i)));
  Printf.printf
    "shape: JMPaX detection rate dominates JPaX's (the paper's \"probability of\n\
     detecting these bugs only by monitoring the observed run is very low\").\n"

(* {1 E7: lattice scaling and the two-level memory bound} *)

let e7 () =
  section "E7" "Lattice construction vs level-by-level analysis (memory bound)";
  Printf.printf "%-10s %8s %8s %10s %10s %12s %12s\n" "workload" "events" "cuts" "runs"
    "max width" "frontier" "analyze";
  List.iter
    (fun (threads, writes) ->
      let program = Tml.Programs.independent ~threads ~writes in
      let spec = Pastltl.Fparser.parse (Printf.sprintf "always v0 <= %d" writes) in
      let r = Tml.Vm.run_program ~sched:(Tml.Sched.round_robin ()) program in
      let comp =
        Observer.Computation.of_messages_exn ~nthreads:threads
          ~init:program.Tml.Ast.shared r.Tml.Vm.messages
      in
      let lattice = Observer.Lattice.build comp in
      let messages = Observer.Computation.messages comp in
      let sweep () =
        Predict.Analyzer.sweep ~spec ~nthreads:threads ~init:program.Tml.Ast.shared messages
      in
      let report = sweep () in
      let t0 = Sys.time () in
      ignore (sweep ());
      let dt = Sys.time () -. t0 in
      Printf.printf "%-10s %8d %8d %10d %10d %12d %9.1f ms\n"
        (Printf.sprintf "%dx%d" threads writes)
        (Observer.Computation.total comp)
        (Observer.Lattice.node_count lattice)
        (Observer.Lattice.run_count lattice)
        (Observer.Lattice.max_width lattice)
        report.Predict.Analyzer.stats.Predict.Analyzer.max_frontier_entries
        (dt *. 1e3))
    [ (2, 3); (2, 6); (2, 12); (3, 3); (3, 6); (4, 4) ];
  Printf.printf
    "shape: runs grow combinatorially while the analyzer's frontier stays at the\n\
     width of one level (the paper's two-consecutive-levels bound).\n"

(* {1 E8: liveness lassos} *)

let e8 () =
  section "E8" "Liveness prediction via u v^omega lassos (paper, Section 4)";
  let program =
    Tml.Parser.parse_program
      {| shared x = 0, tick = 0;
         thread flipper { x = 1; x = 0; x = 1; x = 0; }
         thread ticker { tick = 1; } |}
  in
  let r = Tml.Vm.run_program ~sched:(Tml.Sched.round_robin ()) program in
  let comp =
    Observer.Computation.of_messages_exn ~nthreads:2 ~init:program.Tml.Ast.shared
      r.Tml.Vm.messages
  in
  let lattice = Observer.Lattice.build comp in
  let lassos = Predict.Liveness.find_lassos lattice in
  Printf.printf "lattice: %d cuts, %d candidate lassos\n"
    (Observer.Lattice.node_count lattice)
    (List.length lassos);
  let atom x n =
    Predict.Liveness.FAtom
      (Pastltl.Predicate.make Pastltl.Predicate.Eq (Pastltl.Predicate.Var x)
         (Pastltl.Predicate.Const n))
  in
  let checks =
    [ ( "F G (x == 1)  [stabilizes high]",
        Predict.Liveness.FEventually (Predict.Liveness.FAlways (atom "x" 1)) );
      ( "G F (x == 1)  [infinitely often high]",
        Predict.Liveness.FAlways (Predict.Liveness.FEventually (atom "x" 1)) );
      ("F (tick == 1) [ticker fires]", Predict.Liveness.FEventually (atom "tick" 1)) ]
  in
  List.iter
    (fun (name, spec) ->
      match Predict.Liveness.check ~spec lattice with
      | Some lasso ->
          Printf.printf "%-40s VIOLATED by a lasso (|u|=%d, |v|=%d)\n" name
            (List.length lasso.Predict.Liveness.prefix)
            (List.length lasso.Predict.Liveness.cycle)
      | None -> Printf.printf "%-40s no violating lasso\n" name)
    checks

(* {1 E9: synchronization handling (Section 3.1)} *)

let e9 () =
  section "E9" "Synchronization lowering: races, locks, wait/notify";
  let serial =
    Tml.Sched.make_raw ~name:"serial"
      ~pick_fn:(fun runnable _ -> runnable.(0))
      ~choose_fn:(fun _ -> 0)
  in
  let exec_of program =
    Option.get (Tml.Vm.run_program ~sched:serial program).Tml.Vm.exec
  in
  let racy = Predict.Race.detect (exec_of (Tml.Programs.racy_counter ~increments:3)) in
  let locked = Predict.Race.detect (exec_of (Tml.Programs.locked_counter ~increments:3)) in
  Printf.printf "racy counter   : %d racy pairs on {%s}\n"
    (List.length racy.Predict.Race.races)
    (String.concat "," racy.Predict.Race.racy_vars);
  Printf.printf "locked counter : %s\n"
    (if Predict.Race.race_free locked then "race-free (lock writes order the accesses)"
     else "RACY?!");
  let dl = Predict.Lockgraph.analyze (exec_of Tml.Programs.bank_transfer) in
  Printf.printf "bank transfer  : cycles %s\n"
    (String.concat " " (List.map (fun c -> String.concat "->" c) dl.Predict.Lockgraph.cycles));
  let ok = Predict.Lockgraph.analyze (exec_of Tml.Programs.bank_transfer_ordered) in
  Printf.printf "ordered locks  : %s\n"
    (if Predict.Lockgraph.deadlock_free ok then "deadlock-free" else "cycle?!");
  let pc =
    Tml.Vm.run_program ~sched:(Tml.Sched.round_robin ())
      (Tml.Programs.producer_consumer ~items:3)
  in
  Printf.printf "producer/consumer (wait-notify): %s\n"
    (Format.asprintf "%a" Tml.Vm.pp_outcome pc.Tml.Vm.outcome)

(* {1 E10: ablation — online vs offline analysis} *)

let e10 () =
  section "E10" "Ablation: online (GC'd frontier) vs offline analysis";
  Printf.printf "%-14s %8s %10s %10s %10s %9s %12s\n" "workload" "events" "verdict"
    "frontier" "retired" "buffered" "agree";
  List.iter
    (fun (name, program, spec) ->
      let relevance = Mvc.Relevance.writes_of_vars (Pastltl.Formula.vars spec) in
      let r = Tml.Vm.run_program ~relevance ~sched:(Tml.Sched.round_robin ()) program in
      let nthreads = List.length program.Tml.Ast.threads in
      let init =
        List.filter
          (fun (x, _) -> List.mem x (Pastltl.Formula.vars spec))
          program.Tml.Ast.shared
      in
      let comp =
        Observer.Computation.of_messages_exn ~nthreads ~init r.Tml.Vm.messages
      in
      let offline =
        Predict.Analyzer.sweep ~spec ~nthreads ~init (Observer.Computation.messages comp)
      in
      let online = Predict.Online.create ~nthreads ~init ~spec () in
      Predict.Online.feed_all online r.Tml.Vm.messages;
      Predict.Online.finish online;
      let gc = Predict.Online.gc_stats online in
      Printf.printf "%-14s %8d %10s %10d %10d %9d %12s\n" name
        (List.length r.Tml.Vm.messages)
        (if Predict.Online.violated online then "violation" else "clean")
        gc.Predict.Online.peak_frontier_entries gc.Predict.Online.retired_cuts
        (Predict.Online.buffered online)
        (if Predict.Online.violated online = Predict.Analyzer.violated offline then "yes"
         else "NO!"))
    [ ("landing", Tml.Programs.landing_bounded, Pastltl.Formula.landing_spec);
      ("xyz", Tml.Programs.xyz, Pastltl.Formula.xyz_spec);
      ( "indep-3x5",
        Tml.Programs.independent ~threads:3 ~writes:5,
        Pastltl.Fparser.parse "always v0 + v1 + v2 <= 15" );
      ( "dekker",
        Tml.Programs.dekker_sketch,
        Pastltl.Fparser.parse "start counter == 2 ==> once flag0 == 1" ) ];
  Printf.printf
    "shape: identical verdicts; the online analyzer retires every passed level and\n\
     drops consumed messages, keeping only one frontier in memory.\n"

(* {1 E11: ablation — FSM table vs monitor recomputation} *)

let e11 () =
  section "E11" "Ablation: synthesized FSM stepping vs monitor recomputation";
  let traces spec =
    let vars = Pastltl.Formula.vars spec in
    let state_of seed =
      Pastltl.State.of_list (List.mapi (fun i x -> (x, (seed + i) mod 2)) vars)
    in
    List.init 1000 state_of
  in
  List.iter
    (fun (name, spec) ->
      let fsm = Pastltl.Fsm.synthesize spec in
      let minimized = Pastltl.Fsm.minimize fsm in
      let monitor = Pastltl.Monitor.compile spec in
      let trace = traces spec in
      let monitor_run () =
        ignore
          (List.fold_left
             (fun m s ->
               match m with
               | None -> Some (Pastltl.Monitor.init monitor s)
               | Some m -> Some (Pastltl.Monitor.step monitor m s))
             None trace)
      in
      let fsm_run () = ignore (Pastltl.Fsm.run minimized trace) in
      let results =
        measure
          [ Test.make ~name:"fsm" (Staged.stage fsm_run);
            Test.make ~name:"monitor" (Staged.stage monitor_run) ]
      in
      match results with
      | [ (_, fsm_ns); (_, mon_ns) ] ->
          Printf.printf
            "%-10s subformulas=%2d, FSM states=%d (minimized %d); monitor %s, fsm %s \
             (%.2fx)\n"
            name
            (Pastltl.Monitor.width monitor)
            (Pastltl.Fsm.state_count fsm)
            (Pastltl.Fsm.state_count minimized)
            (pp_ns mon_ns) (pp_ns fsm_ns) (mon_ns /. fsm_ns)
      | _ -> ())
    [ ("landing", Pastltl.Formula.landing_spec); ("xyz", Pastltl.Formula.xyz_spec) ];
  Printf.printf
    "shape: the property compiles to a handful of FSM states (the paper's \"typically\n\
     quite small\"), and table stepping beats per-state recomputation.\n"

(* {1 E12: ablation — relevance filtering} *)

let e12 () =
  section "E12" "Ablation: spec-derived relevance vs all-writes instrumentation";
  Printf.printf "%-14s %22s %22s\n" "" "spec variables only" "every write relevant";
  Printf.printf "%-14s %10s %10s %10s %10s\n" "workload" "messages" "cuts" "messages" "cuts";
  List.iter
    (fun (name, program, spec) ->
      let run relevance =
        let r = Tml.Vm.run_program ~relevance ~sched:(Tml.Sched.round_robin ()) program in
        let nthreads = List.length program.Tml.Ast.threads in
        let comp =
          Observer.Computation.of_messages_exn ~nthreads ~init:program.Tml.Ast.shared
            r.Tml.Vm.messages
        in
        let report =
          Predict.Analyzer.sweep ~spec ~nthreads ~init:program.Tml.Ast.shared
            (Observer.Computation.messages comp)
        in
        (List.length r.Tml.Vm.messages,
         report.Predict.Analyzer.stats.Predict.Analyzer.cuts_visited)
      in
      let m1, c1 = run (Mvc.Relevance.writes_of_vars (Pastltl.Formula.vars spec)) in
      let m2, c2 = run Mvc.Relevance.all_writes in
      Printf.printf "%-14s %10d %10d %10d %10d\n" name m1 c1 m2 c2)
    [ ("peterson", Tml.Programs.peterson, Pastltl.Fparser.parse "always counter <= 2");
      ( "dekker",
        Tml.Programs.dekker_sketch,
        Pastltl.Fparser.parse "always counter <= 2" );
      ( "racy-counter",
        Tml.Programs.racy_counter ~increments:3,
        Pastltl.Fparser.parse "always counter <= 6" ) ];
  Printf.printf
    "shape: restricting relevance to the specification's variables (Section 2.3,\n\
     \"to minimize the number of messages\") shrinks both the message stream and\n\
     the lattice the observer must sweep.\n"

(* {1 E13: atomicity prediction} *)

let e13 () =
  section "E13" "Predictive atomicity (block serializability) from one serial run";
  let serial =
    Tml.Sched.make_raw ~name:"serial"
      ~pick_fn:(fun runnable _ -> runnable.(0))
      ~choose_fn:(fun _ -> 0)
  in
  let analyze name src =
    let program = Tml.Parser.parse_program src in
    let r = Tml.Vm.run_program ~sched:serial program in
    let report = Predict.Atomicity.analyze (Option.get r.Tml.Vm.exec) in
    Printf.printf "%-28s %2d blocks, %s\n" name report.Predict.Atomicity.transactions
      (if Predict.Atomicity.serializable report then "serializable"
       else
         Printf.sprintf "%d violations (%s)"
           (List.length report.Predict.Atomicity.violations)
           (String.concat "; "
              (List.sort_uniq compare
                 (List.map
                    (fun v -> Predict.Atomicity.pattern_name v.Predict.Atomicity.pattern)
                    report.Predict.Atomicity.violations))))
  in
  analyze "locked counter (consistent)"
    {| shared c = 0;
       thread a { sync (m) { c = c + 1; } }
       thread b { sync (m) { c = c + 1; } } |};
  analyze "locked vs bare write"
    {| shared c = 0;
       thread a { sync (m) { c = c + 1; } }
       thread b { c = 5; } |};
  analyze "double read vs bare write"
    {| shared x = 0, out = 0;
       thread a { sync (m) { out = x + x; } }
       thread b { x = 7; } |};
  analyze "double write vs bare read"
    {| shared x = 0, seen = 0;
       thread a { sync (m) { x = 1; x = 2; } }
       thread b { seen = x; } |};
  Printf.printf
    "shape: violations are predicted from a serial (never-interleaved) run, and\n\
     disappear when the remote access takes the same lock.\n"

(* {1 E16: telemetry overhead} *)

(* The telemetry contract is one atomic load and branch per site when
   metrics are off, and a handful of atomic read-modify-writes per event
   when on.  Measured here end-to-end: the paper's two worked examples
   through the whole pipeline, and an independent-writes grid through
   the analyzer.
   Returns false when the metrics-on overhead breaks the 10% gate. *)
let e16 ?(smoke = false) () =
  section "E16" "Telemetry overhead: metrics registry on vs off";
  let was_on = Telemetry.Metrics.enabled () in
  let quota = if smoke then 0.1 else 0.4 in
  let check_workload name spec program =
    let config = Jmpax.Config.default () in
    (name, fun () -> ignore (Jmpax.Pipeline.check ~config ~spec program))
  in
  let grid threads writes =
    let program = Tml.Programs.independent ~threads ~writes in
    let r = Tml.Vm.run_program ~sched:(Tml.Sched.round_robin ()) program in
    let comp =
      Observer.Computation.of_messages_exn ~nthreads:threads
        ~init:program.Tml.Ast.shared r.Tml.Vm.messages
    in
    let spec = Pastltl.Fparser.parse "always v0 <= 9" in
    ( Printf.sprintf "grid-%dx%d" threads writes,
      fun () ->
        ignore
          (Predict.Analyzer.sweep ~spec ~nthreads:threads ~init:program.Tml.Ast.shared
             (Observer.Computation.messages comp)) )
  in
  let workloads =
    if smoke then
      [ check_workload "landing" Pastltl.Formula.landing_spec Tml.Programs.landing_bounded;
        grid 4 2 ]
    else
      [ check_workload "landing" Pastltl.Formula.landing_spec Tml.Programs.landing_bounded;
        check_workload "xyz" Pastltl.Formula.xyz_spec Tml.Programs.xyz;
        grid 6 2;
        grid 8 2 ]
  in
  let measure_arm ~on ~quota run =
    if on then Telemetry.Metrics.enable_deep () else Telemetry.Metrics.disable ();
    let ns =
      match
        measure ~quota
          [ Test.make ~name:(if on then "on" else "off") (Staged.stage run) ]
      with
      | [ (_, ns) ] -> ns
      | _ -> nan
    in
    Telemetry.Metrics.disable ();
    ns
  in
  let worst = ref 0. in
  Printf.printf "%-12s %12s %12s %9s\n" "workload" "metrics off" "metrics on" "ratio";
  List.iter
    (fun (name, run) ->
      (* Scheduler noise on the microsecond workloads easily exceeds
         the 10% gate, so each arm keeps its minimum across retries
         (the min is the usual noise-floor estimator) with a growing
         quota before a ratio is allowed to fail the gate. *)
      let rec attempt quota tries best_off best_on =
        let off = Float.min best_off (measure_arm ~on:false ~quota run) in
        let on = Float.min best_on (measure_arm ~on:true ~quota run) in
        let ratio = on /. off in
        if ratio > 1.10 && tries > 0 then attempt (quota *. 2.) (tries - 1) off on
        else (off, on, ratio)
      in
      let off, on, ratio = attempt quota 2 infinity infinity in
      record ~experiment:"E16" ~metric:(name ^ " ns_off") off;
      record ~experiment:"E16" ~metric:(name ^ " ns_on") on;
      record ~experiment:"E16" ~metric:(name ^ " overhead_ratio") ratio;
      if ratio > !worst then worst := ratio;
      Printf.printf "%-12s %s %s %8.3fx\n" name (pp_ns off) (pp_ns on) ratio)
    workloads;
  record ~experiment:"E16" ~metric:"worst_overhead_ratio" !worst;
  if was_on then Telemetry.Metrics.enable_deep ();
  Printf.printf "verdict: worst metrics-on overhead %+.1f%% (gate: +10%%)\n"
    ((!worst -. 1.) *. 100.);
  !worst <= 1.10

(* {1 E18: crash safety — checkpoint write cost, streaming overhead} *)

(* A long-running concurrent trace with a *bounded* concurrency
   window: [nthreads] threads advance in loose lockstep, each round-[i]
   message carrying clock (own = i+1, others = i) — every thread has
   seen the previous round of all the others.  Only same-round messages
   are mutually concurrent, so the frontier width stays a small
   constant no matter how long the trace runs.  That is the steady
   state of a real long-running monitor: checkpoints stay a few KB
   while every lattice level still does real cut expansion. *)
let windowed_trace ~nthreads ~rounds =
  let header =
    { Jmpax.Wire.nthreads;
      init = List.init nthreads (fun i -> (Printf.sprintf "v%d" i, 0)) }
  in
  let ms =
    List.concat
      (List.init rounds (fun i ->
           List.init nthreads (fun tid ->
               let clock = Array.init nthreads (fun _ -> i) in
               clock.(tid) <- i + 1;
               Trace.Message.make ~eid:((i * nthreads) + tid) ~tid
                 ~var:(Printf.sprintf "v%d" tid) ~value:(i + 1)
                 ~mvc:(Vclock.of_list (Array.to_list clock)))))
  in
  (header, ms)

(* A wide conjunction of temporal clauses over the shared variables,
   none of which ever violates on [windowed_trace] (values only grow,
   so [v >= 0] is invariant and [v < 0] never fires the interval
   close).  Distinct constants keep the clauses structurally distinct,
   so the compiled monitor is genuinely wide — per-event monitor work
   is what a per-level checkpoint has to stay cheap against. *)
let e18_spec ~nthreads ~nclauses =
  List.init nclauses (fun c ->
      Printf.sprintf "((once v%d >= %d) ==> [v%d >= 0, v%d < 0))"
        (c mod nthreads) (c + 1)
        ((c + 1) mod nthreads)
        ((c + 2) mod nthreads))
  |> String.concat " and "
  |> Pastltl.Fparser.parse

let e18 ?(smoke = false) () =
  section "E18"
    "Crash safety: checkpoint write cost and --checkpoint-every overhead";
  let nthreads = 4 and rounds = if smoke then 12 else 30 in
  let header, ms = windowed_trace ~nthreads ~rounds in
  let doc = Jmpax.Wire.Framed3.encode header ms in
  let spec = e18_spec ~nthreads ~nclauses:32 in
  let ckpath = Filename.temp_file "jmpax_bench" ".ckpt" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists ckpath then Sys.remove ckpath;
      if Sys.file_exists (ckpath ^ ".tmp") then Sys.remove (ckpath ^ ".tmp"))
  @@ fun () ->
  let run_stream ?checkpoint () =
    match Jmpax.Stream.run_string ?checkpoint ~spec doc with
    | Ok o -> o
    | Error e -> failwith ("E18: stream failed: " ^ Jmpax.Wire.Error.to_string e)
  in
  (* Correctness before timing: checkpointing must not change the
     outcome, and a resume from the surviving file must complete. *)
  let base = run_stream () in
  let ck1 = run_stream ~checkpoint:(ckpath, 1) () in
  if Jmpax.Report.stream_summary base
     <> Jmpax.Report.stream_summary
          { ck1 with
            Jmpax.Stream.s_stats =
              { ck1.Jmpax.Stream.s_stats with Jmpax.Stream.checkpoints = 0 } }
  then failwith "E18: checkpointing changed the verdict";
  let ck =
    match Jmpax.Checkpoint.read ckpath with
    | Ok ck -> ck
    | Error e -> failwith ("E18: " ^ Jmpax.Checkpoint.error_to_string e)
  in
  (match Jmpax.Stream.run_string ~resume:ck ~spec doc with
  | Ok o when Jmpax.Report.stream_summary o = Jmpax.Report.stream_summary base
    -> ()
  | Ok _ -> failwith "E18: resumed run disagrees with the uninterrupted one"
  | Error e -> failwith ("E18: resume failed: " ^ Jmpax.Wire.Error.to_string e));
  let bytes = String.length (Jmpax.Checkpoint.encode ck) in
  Printf.printf
    "trace: %d messages over %d threads; %d levels, %d checkpoints of %d bytes\n"
    (List.length ms) nthreads ck1.Jmpax.Stream.s_level
    ck1.Jmpax.Stream.s_stats.Jmpax.Stream.checkpoints bytes;
  record ~experiment:"E18" ~metric:"checkpoint_bytes" (float_of_int bytes);
  record ~experiment:"E18" ~metric:"checkpoints_written"
    (float_of_int ck1.Jmpax.Stream.s_stats.Jmpax.Stream.checkpoints);
  (* Isolated write cost: encode + tmp file + rename of one snapshot. *)
  (match
     measure ~quota:(if smoke then 0.1 else 0.3)
       [ Test.make ~name:"write"
           (Staged.stage (fun () ->
                ignore (Jmpax.Checkpoint.write ckpath ck))) ]
   with
  | [ (_, ns) ] ->
      Printf.printf "checkpoint write: %s (%d bytes, atomic tmp+rename)\n"
        (pp_ns ns) bytes;
      record ~experiment:"E18" ~metric:"checkpoint_write_ns" ns
  | _ -> ());
  (* The gate: streaming with --checkpoint-every 1 (a checkpoint at
     every lattice level, the most paranoid setting) must stay within
     1.15x of streaming without.  Min-across-retries as in E16 — the
     workload is milliseconds, so scheduler noise is the main hazard. *)
  let arm name f = Test.make ~name (Staged.stage f) in
  let measure_arm ~quota t =
    match measure ~quota [ t ] with [ (_, ns) ] -> ns | _ -> nan
  in
  let quota = if smoke then 0.1 else 0.4 in
  let rec attempt quota tries best_off best_on =
    let off =
      Float.min best_off
        (measure_arm ~quota (arm "no checkpoint" (fun () -> ignore (run_stream ()))))
    in
    let on =
      Float.min best_on
        (measure_arm ~quota
           (arm "checkpoint every level" (fun () ->
                ignore (run_stream ~checkpoint:(ckpath, 1) ()))))
    in
    let ratio = on /. off in
    if ratio > 1.15 && tries > 0 then attempt (quota *. 2.) (tries - 1) off on
    else (off, on, ratio)
  in
  let off, on, ratio = attempt quota 2 infinity infinity in
  Printf.printf "%-24s %s\n%-24s %s\n" "stream, no checkpoint" (pp_ns off)
    "stream, --checkpoint-every 1" (pp_ns on);
  record ~experiment:"E18" ~metric:"stream_ns_no_checkpoint" off;
  record ~experiment:"E18" ~metric:"stream_ns_checkpoint_every1" on;
  record ~experiment:"E18" ~metric:"overhead_ratio_every1" ratio;
  Printf.printf
    "verdict: checkpoint-every-level overhead %+.1f%% (gate: +15%%)\n"
    ((ratio -. 1.) *. 100.);
  ratio <= 1.15

(* {1 E22: streaming race & atomicity engines — O(n) gate + offline parity} *)

(* A mixed million-event workload for the streaming engines: round-robin
   threads interleave sync(m)/sync(n) counter transactions (lock traffic
   plus in-block read/write) with unprotected read/write pairs on x and
   y (real races), and an occasional unprotected counter write that
   breaks serializability of the transactions.  Everything the two
   engines track — per-variable summaries, open blocks, closed-pair
   clocks, remote frontiers — stays bounded on this shape, which is
   exactly the O(n) claim the quartile gate below checks. *)
let e22_exec ~nthreads ~n =
  let b =
    Trace.Exec.builder ~nthreads
      ~init:[ ("x", 0); ("y", 0); ("counter", 0) ]
  in
  let count = ref 0 in
  let tid = ref 0 in
  while !count < n do
    let t = !tid in
    tid := (!tid + 1) mod nthreads;
    if !count mod 101 = 100 then begin
      ignore (Trace.Exec.add_write b t "counter" !count);
      incr count
    end
    else if !count mod 7 < 3 then begin
      let l = if !count mod 2 = 0 then "m" else "n" in
      ignore (Trace.Exec.add_write b t (Trace.Types.lock_var l) 1);
      ignore (Trace.Exec.add_read b t "counter" !count);
      ignore (Trace.Exec.add_write b t "counter" (!count + 1));
      ignore (Trace.Exec.add_write b t (Trace.Types.lock_var l) 0);
      count := !count + 4
    end
    else begin
      let v = if !count mod 2 = 0 then "x" else "y" in
      ignore (Trace.Exec.add_read b t v !count);
      ignore (Trace.Exec.add_write b t v !count);
      count := !count + 2
    end
  done;
  Trace.Exec.freeze b

let e22 ?(smoke = false) () =
  section "E22" "Streaming race & atomicity engines: offline parity and O(n) throughput";
  let nthreads = 4 and n = if smoke then 80_000 else 1_000_000 in
  let exec = e22_exec ~nthreads ~n in
  let events = Trace.Exec.length exec in
  (* Ground truth: the offline passes over the full recorded execution. *)
  let race_off = Predict.Race.verdict_of_report (Predict.Race.detect exec) in
  let atom_off =
    Predict.Atomicity.verdict_of_report (Predict.Atomicity.analyze exec)
  in
  let msgs = Array.of_list (Predict.Engine.messages_of_exec exec) in
  let total = Array.length msgs in
  let fresh_bundle () =
    Predict.Engines.create
      ~kinds:[ Predict.Engine.Race; Predict.Engine.Atomicity ]
      ~nthreads ~init:(Trace.Exec.init exec) ~spec:None ()
  in
  (* Warm-up pass on a throwaway bundle: grows the major heap and the
     hashtables once, so the timed quartiles below measure the engines,
     not allocator ramp-up. *)
  (let w = fresh_bundle () in
   Array.iter (Predict.Engines.feed w) msgs;
   Predict.Engines.finish w);
  (* Stream the messages through the engine bundle in four equal
     quartiles, timing each: a quadratic engine gets slower per message
     as its summaries grow, so the last quartile falls behind the
     first.  A streaming O(n) engine holds throughput flat.  Best of
     three runs per quartile (with a compacted heap before each run)
     so GC scheduling noise cannot masquerade as drift. *)
  let qn = total / 4 in
  let counts = Array.make 4 0 in
  let eps = Array.make 4 0.0 in
  let reps = if smoke then 2 else 3 in
  let last_bundle = ref None in
  for _ = 1 to reps do
    Gc.compact ();
    let bundle = fresh_bundle () in
    last_bundle := Some bundle;
    let idx = ref 0 in
    for q = 0 to 3 do
      let hi = if q = 3 then total else (q + 1) * qn in
      counts.(q) <- hi - !idx;
      let t0 = Unix.gettimeofday () in
      while !idx < hi do
        Predict.Engines.feed bundle msgs.(!idx);
        incr idx
      done;
      let dt = Unix.gettimeofday () -. t0 in
      eps.(q) <- max eps.(q) (float_of_int counts.(q) /. dt)
    done
  done;
  let bundle = Option.get !last_bundle in
  Predict.Engines.finish bundle;
  let lines = Predict.Engines.verdict_lines bundle in
  let race_on = List.assoc "race" lines in
  let atom_on = List.assoc "atomicity" lines in
  if race_on <> race_off then
    failwith "E22: streaming race verdict differs from the offline pass";
  if atom_on <> atom_off then
    failwith "E22: streaming atomicity verdict differs from the offline pass";
  Printf.printf "trace: %d events (%d messages) across %d threads\n" events
    total nthreads;
  Printf.printf "  %s\n  %s\n" race_on atom_on;
  Printf.printf "%-10s %12s %14s\n" "quartile" "messages" "events/s";
  for q = 0 to 3 do
    Printf.printf "Q%-9d %12d %14.0f\n" (q + 1) counts.(q) eps.(q);
    record ~experiment:"E22"
      ~metric:(Printf.sprintf "q%d_events_per_s" (q + 1))
      eps.(q)
  done;
  let slowest = Array.fold_left min eps.(0) eps in
  let fastest = Array.fold_left max eps.(0) eps in
  let ratio = fastest /. slowest in
  record ~experiment:"E22" ~metric:"events" (float_of_int events);
  record ~experiment:"E22" ~metric:"messages" (float_of_int total);
  record ~experiment:"E22" ~metric:"throughput_ratio_max_over_min" ratio;
  record ~experiment:"E22" ~metric:"verdict_parity" 1.0;
  (* Smoke quartiles are a few milliseconds each; allow more jitter
     there, keep the real gate at the documented 1.5x. *)
  let limit = if smoke then 3.0 else 1.5 in
  Printf.printf
    "verdict: quartile throughput ratio %.2fx (gate: <= %.1fx), verdicts match \
     offline passes\n"
    ratio limit;
  ratio <= limit

(* {1 Driver} *)

let gate_failed = ref false

let run_e16 ?smoke () =
  if not (e16 ?smoke ()) then begin
    prerr_endline "bench: E16 telemetry overhead gate FAILED (metrics-on > 1.10x)";
    gate_failed := true
  end

let run_e18 ?smoke () =
  if not (e18 ?smoke ()) then begin
    prerr_endline
      "bench: E18 checkpoint overhead gate FAILED (--checkpoint-every 1 > 1.15x)";
    gate_failed := true
  end

let run_e22 ?smoke () =
  if not (e22 ?smoke ()) then begin
    prerr_endline
      "bench: E22 streaming engine gate FAILED (quartile throughput drifted past \
       the limit)";
    gate_failed := true
  end

let experiments =
  [ ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E6", e6); ("E7", e7); ("E8", e8);
    ("E9", e9); ("E10", e10); ("E11", e11); ("E12", e12); ("E13", e13);
    ("E16", fun () -> run_e16 ());
    ("E18", fun () -> run_e18 ());
    ("E22", fun () -> run_e22 ()) ]

let dump_metrics dest =
  let text = Telemetry.Metrics.to_text () in
  if dest = "-" then print_string text
  else begin
    let oc = open_out dest in
    output_string oc text;
    close_out oc
  end

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* Extract [--json FILE], [--metrics FILE] and [--smoke] wherever they
     appear. *)
  let json_path = ref None in
  let metrics_path = ref None in
  let smoke = ref false in
  let rec strip = function
    | [] -> []
    | [ "--json" ] ->
        prerr_endline "bench: --json requires a file argument";
        exit 2
    | "--json" :: path :: rest ->
        json_path := Some path;
        strip rest
    | [ "--metrics" ] ->
        prerr_endline "bench: --metrics requires a file argument ('-' for stdout)";
        exit 2
    | "--metrics" :: path :: rest ->
        metrics_path := Some path;
        strip rest
    | "--smoke" :: rest ->
        smoke := true;
        strip rest
    | a :: rest -> a :: strip rest
  in
  let args = strip args in
  if !metrics_path <> None then Telemetry.Metrics.enable_deep ();
  (match (args, !smoke) with
  | [], true ->
      (* CI smoke: a fast subset proving the bench binary still runs,
         plus the telemetry-overhead gate. *)
      e1 ();
      run_e16 ~smoke:true ();
      run_e18 ~smoke:true ();
      run_e22 ~smoke:true ()
  | ([] | [ "all" ]), false -> List.iter (fun (_, f) -> f ()) experiments
  | [ "perf" ], _ ->
      e3 ();
      e4 ()
  | ids, _ ->
      List.iter
        (fun id ->
          match List.assoc_opt (String.uppercase_ascii id) experiments with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown experiment %s (known: %s, all, perf, --smoke)\n" id
                (String.concat ", " (List.map fst experiments));
              exit 2)
        ids);
  Option.iter write_json !json_path;
  Option.iter dump_metrics !metrics_path;
  if !gate_failed then begin
    prerr_endline "bench: a performance gate FAILED (see messages above)";
    exit 1
  end

(* End-to-end tests of the JMPaX pipeline: instrument, run, ship through
   a channel, rebuild the computation, predict — plus the JPaX baseline
   comparison and the report renderers. *)

let landing_config () =
  Jmpax.Config.default ()
  |> Jmpax.Config.with_sched (Tml.Sched.of_script Tml.Programs.landing_observed)

let check_landing output =
  Alcotest.(check bool) "observed run clean" true output.Jmpax.Pipeline.observed_ok;
  Alcotest.(check bool) "violation predicted" true
    (Jmpax.Pipeline.predicted_violation output);
  Alcotest.(check bool) "missed by baseline" true
    (Jmpax.Pipeline.missed_by_baseline output)

let test_landing_pipeline () =
  let output =
    Jmpax.Pipeline.check ~config:(landing_config ()) ~spec:Pastltl.Formula.landing_spec
      Tml.Programs.landing_bounded
  in
  check_landing output;
  Alcotest.(check (list string)) "relevant vars extracted from the spec"
    [ "approved"; "landing"; "radio" ] output.Jmpax.Pipeline.relevant_vars;
  Alcotest.(check int) "three messages" 3 (List.length output.Jmpax.Pipeline.delivered)

let test_landing_pipeline_with_shuffled_channel () =
  (* Scrambled delivery must not change the verdicts. *)
  List.iter
    (fun seed ->
      let config =
        landing_config () |> Jmpax.Config.with_channel (Jmpax.Config.Shuffled seed)
      in
      let output =
        Jmpax.Pipeline.check ~config ~spec:Pastltl.Formula.landing_spec
          Tml.Programs.landing_bounded
      in
      check_landing output)
    [ 1; 2; 3; 7; 13 ]

let test_landing_pipeline_with_bounded_channel () =
  let config =
    landing_config () |> Jmpax.Config.with_channel (Jmpax.Config.Bounded (3, 2))
  in
  let output =
    Jmpax.Pipeline.check ~config ~spec:Pastltl.Formula.landing_spec
      Tml.Programs.landing_bounded
  in
  check_landing output

let test_xyz_pipeline () =
  let config =
    Jmpax.Config.default ()
    |> Jmpax.Config.with_sched (Tml.Sched.of_script Tml.Programs.xyz_observed)
  in
  let output =
    Jmpax.Pipeline.check ~config ~spec:Pastltl.Formula.xyz_spec Tml.Programs.xyz
  in
  Alcotest.(check bool) "observed clean" true output.Jmpax.Pipeline.observed_ok;
  Alcotest.(check bool) "predicted" true (Jmpax.Pipeline.predicted_violation output);
  (* x is racy in this program and the pipeline's race detector sees it. *)
  (match output.Jmpax.Pipeline.races with
  | Some report ->
      Alcotest.(check (list string)) "x racy" [ "x" ] report.Predict.Race.racy_vars
  | None -> Alcotest.fail "race detection was on");
  match output.Jmpax.Pipeline.deadlocks with
  | Some report ->
      Alcotest.(check bool) "no locks, no deadlock" true
        (Predict.Lockgraph.deadlock_free report)
  | None -> Alcotest.fail "deadlock detection was on"

let test_check_source () =
  let output =
    Jmpax.Pipeline.check_source
      ~spec:"start landing == 1 ==> [approved == 1, radio == 0)"
      (Option.get (Tml.Programs.source_of_name "landing"))
  in
  (* Default round-robin schedule: radio goes off before approval, so
     even the observed run violates here — prediction must agree. *)
  Alcotest.(check bool) "prediction includes the observed run" true
    (Jmpax.Pipeline.predicted_violation output || output.Jmpax.Pipeline.observed_ok)

let test_safe_program_is_clean () =
  let output =
    Jmpax.Pipeline.check_source ~spec:"always counter >= 0"
      {| shared counter = 0;
         thread a { sync (m) { counter = counter + 1; } }
         thread b { sync (m) { counter = counter + 1; } } |}
  in
  Alcotest.(check bool) "no violation predicted" false
    (Jmpax.Pipeline.predicted_violation output);
  Alcotest.(check bool) "observed clean" true output.Jmpax.Pipeline.observed_ok;
  match output.Jmpax.Pipeline.races with
  | Some report -> Alcotest.(check bool) "race free" true (Predict.Race.race_free report)
  | None -> Alcotest.fail "race detection was on"

(* {1 Pipeline-level soundness} *)

(* Across programs, specs, seeds and channels:
   - the observed linearization is one of the lattice runs, so an
     observed violation must also be predicted;
   - the frontier analyzer agrees with explicit run enumeration. *)
let test_pipeline_soundness_sweep () =
  let cases =
    [ (Tml.Programs.landing_full ~rounds:2, Pastltl.Formula.landing_spec);
      (Tml.Programs.xyz, Pastltl.Formula.xyz_spec);
      (Tml.Programs.dekker_sketch, Pastltl.Fparser.parse "always counter <= 1");
      (Tml.Programs.racy_counter ~increments:2,
       Pastltl.Fparser.parse "start counter == 2 ==> prev counter == 1") ]
  in
  List.iter
    (fun (program, spec) ->
      List.iter
        (fun seed ->
          List.iter
            (fun channel ->
              let config =
                Jmpax.Config.default () |> Jmpax.Config.with_seed seed
                |> Jmpax.Config.with_channel channel
              in
              let output = Jmpax.Pipeline.check ~config ~spec program in
              let predicted = Jmpax.Pipeline.predicted_violation output in
              if not output.Jmpax.Pipeline.observed_ok then
                Alcotest.(check bool)
                  (Printf.sprintf "seed %d: observed violation is predicted" seed)
                  true predicted;
              let enumerated =
                Predict.Counterexample.violated
                  (Predict.Counterexample.check ~spec output.Jmpax.Pipeline.computation)
              in
              Alcotest.(check bool)
                (Printf.sprintf "seed %d: analyzer = enumeration" seed)
                enumerated predicted)
            [ Jmpax.Config.In_order; Jmpax.Config.Shuffled (seed + 100);
              Jmpax.Config.Bounded (seed, 3) ])
        [ 0; 1; 2; 3; 4 ])
    cases

(* {1 JPaX baseline} *)

(* The observed-run verdict latches: a state that falsified the
   specification is not undone by a later good one. *)
let test_jpax_latching () =
  let spec = Pastltl.Fparser.parse "always x == 0" in
  let mk v seq =
    Trace.Message.make ~eid:seq ~tid:0 ~var:"x" ~value:v
      ~mvc:(Vclock.of_list [ seq ])
  in
  let verdict values =
    Predict.Analyzer.observed_run_verdict ~spec ~init:[ ("x", 0) ]
      (List.mapi (fun i v -> mk v (i + 1)) values)
  in
  Alcotest.(check bool) "x = 0 holds" true (verdict [ 0 ]);
  Alcotest.(check bool) "x = 0, 1, 0 latched" false (verdict [ 0; 1; 0 ])

(* {1 Wire format} *)

let xyz_messages () =
  let r =
    Tml.Vm.run_program
      ~relevance:(Mvc.Relevance.writes_of_vars [ "x"; "y"; "z" ])
      ~sched:(Tml.Sched.of_script Tml.Programs.xyz_observed)
      Tml.Programs.xyz
  in
  r.Tml.Vm.messages

let xyz_header = { Jmpax.Wire.nthreads = 2; init = Tml.Programs.xyz.Tml.Ast.shared }

let decode_framed text =
  match Jmpax.Wire.decode_framed text with
  | Ok d -> d
  | Error e -> Alcotest.fail (Jmpax.Wire.Error.to_string e)

let same_payload (a : Trace.Message.t) (b : Trace.Message.t) =
  a.tid = b.tid && a.var = b.var && a.value = b.value && Vclock.equal a.mvc b.mvc

let test_wire_roundtrip () =
  let messages = xyz_messages () in
  let header', messages' = decode_framed (Jmpax.Wire.Framed3.encode xyz_header messages) in
  Alcotest.(check int) "nthreads" 2 header'.Jmpax.Wire.nthreads;
  Alcotest.(check (list (pair string int))) "init" xyz_header.Jmpax.Wire.init
    header'.Jmpax.Wire.init;
  Alcotest.(check int) "message count" (List.length messages) (List.length messages');
  Alcotest.(check bool) "same payloads" true (List.for_all2 same_payload messages messages')

(* The v1 writer has no reader: its output on the xyz run is pinned by
   a committed file. *)
let test_wire_v1_golden () =
  let committed =
    List.map (fun dir -> Filename.concat dir "data/xyz.v1")
      [ Filename.dirname Sys.executable_name; "test" ]
    |> List.find Sys.file_exists
    |> fun path -> In_channel.with_open_bin path In_channel.input_all
  in
  Alcotest.(check string) "v1 text" committed
    (Jmpax.Wire.encode xyz_header (xyz_messages ()))

let test_wire_escaping () =
  let mvc = Vclock.of_list [ 1 ] in
  let weird = "a var%with\nnewline" in
  let m = Trace.Message.make ~eid:0 ~tid:0 ~var:weird ~value:(-3) ~mvc in
  let header = { Jmpax.Wire.nthreads = 1; init = [ (weird, 7) ] } in
  let line = Buffer.create 32 in
  Jmpax.Wire.add_message line m;
  Alcotest.(check bool) "single v1 line" true
    (not (String.contains (Buffer.contents line) '\n'));
  match decode_framed (Jmpax.Wire.Framed3.encode header [ m ]) with
  | h, [ m' ] ->
      Alcotest.(check (list (pair string int))) "init restored" header.Jmpax.Wire.init
        h.Jmpax.Wire.init;
      Alcotest.(check string) "variable restored" weird m'.Trace.Message.var;
      Alcotest.(check int) "value restored" (-3) m'.Trace.Message.value
  | _ -> Alcotest.fail "wrong message count"

let test_wire_rejects_garbage () =
  let expect_error text =
    match Jmpax.Wire.decode_framed text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" text
  in
  let module F = Jmpax.Wire.Framed3 in
  let header body = F.preamble ^ F.frame F.kind_header body in
  List.iter expect_error
    [ ""; "not a trace"; Jmpax.Wire.encode xyz_header (xyz_messages ());
      F.preamble; header "threads 0"; header "threads two";
      header "threads 2" ^ F.frame F.kind_message "\x01\x00";
      header "threads 2" ^ F.frame F.kind_end "zero" ]

let test_wire_file_and_observer () =
  let messages = xyz_messages () in
  let path = Filename.temp_file "jmpax" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Jmpax.Wire.write_file path xyz_header messages with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Jmpax.Wire.Error.to_string e));
      let h, ms = decode_framed (In_channel.with_open_bin path In_channel.input_all) in
      let report =
        Predict.Analyzer.sweep ~spec:Pastltl.Formula.xyz_spec ~nthreads:h.Jmpax.Wire.nthreads
          ~init:h.Jmpax.Wire.init ms
      in
      Alcotest.(check bool) "violation predicted from the file" true
        (Predict.Analyzer.violated report))

(* {1 Reports} *)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  n = 0 || at 0

let test_example_report_fig5 () =
  let report =
    Jmpax.Report.example_report ~spec:Pastltl.Formula.landing_spec
      ~program:Tml.Programs.landing_bounded ~script:Tml.Programs.landing_observed
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "mentions %S" needle) true
        (contains ~needle report))
    [ "VIOLATION PREDICTED"; "6 nodes"; "3 runs"; "violating: 2"; "<approved=1, T0, (1,0)>" ]

let test_example_report_fig6 () =
  let report =
    Jmpax.Report.example_report ~spec:Pastltl.Formula.xyz_spec ~program:Tml.Programs.xyz
      ~script:Tml.Programs.xyz_observed
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "mentions %S" needle) true
        (contains ~needle report))
    [ "7 nodes"; "3 runs"; "violating: 1"; "<x=1, T1, (1,2)>" ]

let test_detection_table () =
  let table =
    Jmpax.Report.detection_table ~spec:Pastltl.Formula.landing_spec
      ~program:(Tml.Programs.landing_full ~rounds:2)
      ~seeds:(List.init 20 (fun i -> i))
  in
  Alcotest.(check bool) "has the rate line" true (contains ~needle:"detection rate" table);
  (* Parse the two rates and check the paper's shape: prediction
     dominates observation. *)
  let jpax, jmpax =
    Scanf.sscanf
      (List.find (contains ~needle:"detection rate")
         (String.split_on_char '\n' table))
      "detection rate: JPaX %d/%d, JMPaX %d/%d"
      (fun a _ b _ -> (a, b))
  in
  Alcotest.(check bool) "JMPaX >= JPaX" true (jmpax >= jpax)

(* [--metrics] on a check of a lock program: Algorithm A's join counts
   surface as the [clock.dense.*] gauges (a read joins twice, a write
   once, each over every thread's component), no other clock family is
   registered (the dump omits zero values, an exposition scrape would
   not), and [mvc.messages.tN] counts thread N's messages. *)
let test_metrics_clock_gauges () =
  let dest = Filename.temp_file "jmpax-metrics" ".txt" in
  let config =
    Jmpax.Config.default () |> Jmpax.Config.with_seed 3
    |> Jmpax.Config.with_metrics (Some dest)
  in
  let program = Tml.Programs.locked_counter ~increments:3 in
  let spec = Pastltl.Fparser.parse "counter >= 0" in
  let output =
    Jmpax.Pipeline.with_telemetry config (fun () -> Jmpax.Pipeline.check ~config ~spec program)
  in
  let dumped = In_channel.with_open_text dest In_channel.input_all in
  Sys.remove dest;
  let module M = Telemetry.Metrics in
  let gauge name = M.gauge_value (M.gauge name) in
  let run = output.Jmpax.Pipeline.run in
  let expected_joins =
    Array.fold_left
      (fun n (e : Trace.Event.t) ->
        match e.kind with
        | Trace.Event.Read _ -> n + 2
        | Trace.Event.Write _ -> n + 1
        | Trace.Event.Internal -> n)
      0
      (Trace.Exec.events (Option.get run.Tml.Vm.exec))
  in
  Alcotest.(check bool) "lock writes were joined" true (expected_joins > 0);
  Alcotest.(check int) "clock.dense.joins" expected_joins (gauge "clock.dense.joins");
  Alcotest.(check int) "clock.dense.entry_updates" (2 * expected_joins)
    (gauge "clock.dense.entry_updates");
  Alcotest.(check bool) "gauge dumped" true (contains ~needle:"clock.dense.joins" dumped);
  Alcotest.(check (list string)) "no sparse, tree or fast-join gauges registered" []
    (List.filter
       (fun name ->
         contains ~needle:"clock.sparse." name
         || contains ~needle:"clock.tree." name
         || name = "clock.dense.fast_joins")
       (List.map fst (M.all ())));
  List.iter
    (fun tid ->
      Alcotest.(check int)
        (Printf.sprintf "mvc.messages.t%d" tid)
        (List.length (List.filter (fun m -> m.Trace.Message.tid = tid) run.Tml.Vm.messages))
        (M.value (M.counter (Printf.sprintf "mvc.messages.t%d" tid))))
    [ 0; 1 ]

let () =
  Alcotest.run "jmpax"
    [ ( "pipeline",
        [ Alcotest.test_case "landing" `Quick test_landing_pipeline;
          Alcotest.test_case "landing, shuffled channel" `Quick
            test_landing_pipeline_with_shuffled_channel;
          Alcotest.test_case "landing, bounded channel" `Quick
            test_landing_pipeline_with_bounded_channel;
          Alcotest.test_case "xyz" `Quick test_xyz_pipeline;
          Alcotest.test_case "check_source" `Quick test_check_source;
          Alcotest.test_case "safe program" `Quick test_safe_program_is_clean;
          Alcotest.test_case "--metrics clock gauges" `Quick test_metrics_clock_gauges ] );
      ( "soundness",
        [ Alcotest.test_case "observed => predicted; analyzer = enumeration" `Quick
            test_pipeline_soundness_sweep ] );
      ( "jpax",
        [ Alcotest.test_case "latching" `Quick test_jpax_latching ] );
      ( "wire",
        [ Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "v1 writer golden" `Quick test_wire_v1_golden;
          Alcotest.test_case "escaping" `Quick test_wire_escaping;
          Alcotest.test_case "garbage rejected" `Quick test_wire_rejects_garbage;
          Alcotest.test_case "file to observer" `Quick test_wire_file_and_observer ] );
      ( "reports",
        [ Alcotest.test_case "Fig. 5 report" `Quick test_example_report_fig5;
          Alcotest.test_case "Fig. 6 report" `Quick test_example_report_fig6;
          Alcotest.test_case "detection table" `Quick test_detection_table ] ) ]

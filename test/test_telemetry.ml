(* Tests for the telemetry subsystem: registry semantics and histogram
   bucket boundaries, counter safety under concurrent domains, span
   nesting well-formedness checked through trace replay, and a
   differential test that turning instrumentation on does not perturb
   the analyzer's output. *)

module M = Telemetry.Metrics

let with_metrics_on f =
  M.enable ();
  Fun.protect ~finally:M.disable f

(* {1 Registry} *)

let test_counter_identity () =
  let a = M.counter "t.counter.identity" in
  let b = M.counter "t.counter.identity" in
  M.reset ();
  M.incr a;
  M.add b 2;
  Alcotest.(check int) "one cell behind one name" 3 (M.value a);
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Telemetry.Metrics: \"t.counter.identity\" is already a counter")
    (fun () -> ignore (M.gauge "t.counter.identity"))

let test_gauge_set_max () =
  let g = M.gauge "t.gauge.max" in
  M.reset ();
  M.set g 5;
  M.set_max g 3;
  Alcotest.(check int) "set_max keeps larger" 5 (M.gauge_value g);
  M.set_max g 9;
  Alcotest.(check int) "set_max takes larger" 9 (M.gauge_value g)

(* Bucket k holds [2^(k-1), 2^k); bucket 0 holds v <= 0.  Check every
   documented boundary around the first few powers of two. *)
let test_histogram_buckets () =
  let h = M.histogram "t.hist.buckets" in
  M.reset ();
  List.iter (M.observe h) [ -3; 0; 1; 1; 2; 3; 4; 7; 8; 1024 ];
  Alcotest.(check int) "bucket 0: v <= 0" 2 (M.hist_bucket h 0);
  Alcotest.(check int) "bucket 1: [1,2)" 2 (M.hist_bucket h 1);
  Alcotest.(check int) "bucket 2: [2,4)" 2 (M.hist_bucket h 2);
  Alcotest.(check int) "bucket 3: [4,8)" 2 (M.hist_bucket h 3);
  Alcotest.(check int) "bucket 4: [8,16)" 1 (M.hist_bucket h 4);
  Alcotest.(check int) "bucket 11: [1024,2048)" 1 (M.hist_bucket h 11);
  Alcotest.(check int) "count" 10 (M.hist_count h);
  Alcotest.(check int) "max" 1024 (M.hist_max h);
  Alcotest.(check int) "sum" (-3 + 0 + 1 + 1 + 2 + 3 + 4 + 7 + 8 + 1024) (M.hist_sum h)

let test_series_cap_and_drop () =
  let s = M.series ~cap:4 "t.series.cap" in
  M.reset ();
  List.iter (M.push s) [ 1; 2; 3; 4; 5; 6 ];
  Alcotest.(check (list int)) "first cap points kept" [ 1; 2; 3; 4 ] (M.series_values s);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "drop count surfaces in dump" true
    (contains (M.to_text ()) "2 dropped")

let test_reset () =
  let c = M.counter "t.reset.counter" in
  let h = M.histogram "t.reset.hist" in
  M.add c 7;
  M.observe h 5;
  M.reset ();
  Alcotest.(check int) "counter zeroed" 0 (M.value c);
  Alcotest.(check int) "histogram zeroed" 0 (M.hist_count h)

(* {1 Concurrency} *)

let test_concurrent_counters () =
  let c = M.counter "t.conc.counter" in
  let h = M.histogram "t.conc.hist" in
  M.reset ();
  with_metrics_on (fun () ->
      let per_domain = 20_000 and domains = 4 in
      let worker () =
        for i = 1 to per_domain do
          M.incr c;
          M.observe h (i land 7)
        done
      in
      let ds = List.init (domains - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      List.iter Domain.join ds;
      Alcotest.(check int) "no lost increments" (domains * per_domain) (M.value c);
      Alcotest.(check int) "no lost observations" (domains * per_domain)
        (M.hist_count h))

(* {1 Windows and quantiles} *)

(* The documented law: over a span that is a multiple of the slot
   width, with every push inside the retained range, [rate * span]
   recovers the exact sum of the pushed deltas. *)
let test_window_law_qcheck =
  let gen =
    QCheck.make
      ~print:(fun pushes ->
        String.concat ";"
          (List.map (fun (t, n) -> Printf.sprintf "(%.2f,%d)" t n) pushes))
      QCheck.Gen.(
        list_size (int_range 1 200)
          (pair (float_bound_inclusive 63.9) (int_range 0 1000)))
  in
  QCheck.Test.make ~name:"rate(window) * span = sum(deltas)" ~count:200 gen
    (fun pushes ->
      let w = M.window ~slots:64 ~width:1.0 "t.window.law" in
      M.reset ();
      List.iter (fun (t, n) -> M.window_add w ~now:t n) pushes;
      let total = List.fold_left (fun acc (_, n) -> acc + n) 0 pushes in
      (* All pushes land in [0, 64), so from now = just under the ring's
         edge the full-ring span covers every slot ever written. *)
      let now = 63.95 in
      let span = 64.0 in
      let sum = M.window_sum w ~now ~span in
      let rate = M.window_rate w ~now ~span in
      sum = total && Float.abs ((rate *. span) -. float_of_int total) < 1e-6)

let test_window_rolls_off () =
  let w = M.window ~slots:4 ~width:1.0 "t.window.roll" in
  M.reset ();
  M.window_add w ~now:0.5 10;
  M.window_add w ~now:1.5 20;
  Alcotest.(check int) "both slots in range" 30 (M.window_sum w ~now:1.5 ~span:2.0);
  Alcotest.(check int) "1s span sees only the current slot" 20
    (M.window_sum w ~now:1.5 ~span:1.0);
  (* Wrap the ring: the slot holding t=0.5 is reused for t=4.5. *)
  M.window_add w ~now:4.5 40;
  Alcotest.(check int) "stale slot was zeroed on overwrite" 60
    (M.window_sum w ~now:4.5 ~span:4.0);
  Alcotest.(check (float 1e-9)) "last timestamp" 4.5 (M.window_last w)

let test_quantile_monotone () =
  let h = M.histogram "t.quantile.mono" in
  M.reset ();
  (* Spread across several buckets, including the <= 0 bucket. *)
  List.iter (M.observe h) [ -1; 0; 1; 2; 3; 5; 9; 17; 33; 100; 1000; 5000 ];
  let qs = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ] in
  let estimates = List.map (M.hist_quantile h) qs in
  let rec check_mono = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool)
          (Printf.sprintf "monotone: %.3f <= %.3f" a b)
          true (a <= b +. 1e-9);
        check_mono rest
    | _ -> ()
  in
  check_mono estimates;
  Alcotest.(check bool) "p100 never exceeds the observed max" true
    (M.hist_quantile h 1.0 <= float_of_int (M.hist_max h) +. 1e-9);
  Alcotest.(check (float 1e-9)) "empty histogram quantile is 0" 0.0
    (M.hist_quantile (M.histogram "t.quantile.empty") 0.5)

let test_quantile_single_bucket () =
  let h = M.histogram "t.quantile.single" in
  M.reset ();
  for _ = 1 to 100 do M.observe h 10 done;
  (* Every observation is in bucket [8,16): all quantiles must land
     inside it, clamped above by the observed max. *)
  List.iter
    (fun q ->
      let v = M.hist_quantile h q in
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f inside bucket" q)
        true
        (v >= 8.0 -. 1e-9 && v <= 10.0 +. 1e-9))
    [ 0.01; 0.5; 0.99 ]

(* {1 Structured logging} *)

let with_log_capture f =
  let lines = ref [] in
  Telemetry.Log.set_sink (fun l -> lines := l :: !lines);
  Telemetry.Log.set_clock (fun () -> 42.125);
  let saved_level = Telemetry.Log.level () in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Log.set_sink prerr_endline;
      Telemetry.Log.set_level saved_level;
      Telemetry.Log.set_format Telemetry.Log.Text)
    (fun () ->
      f ();
      List.rev !lines)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_log_text_format () =
  let lines =
    with_log_capture (fun () ->
        Telemetry.Log.set_level Telemetry.Log.Info;
        Telemetry.Log.set_format Telemetry.Log.Text;
        Telemetry.Log.info ~sid:"w1" ~event:"accept"
          ~fields:[ ("addr", "unix:/tmp/s.sock") ]
          "session accepted";
        Telemetry.Log.debug ~event:"hidden" "below the level")
  in
  Alcotest.(check int) "debug below info is dropped" 1 (List.length lines);
  let l = List.hd lines in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("line carries " ^ needle) true (contains l needle))
    [ "ts=42.125"; "level=info"; "event=accept"; "sid=w1";
      "addr=unix:/tmp/s.sock"; "msg=\"session accepted\"" ]

let test_log_json_format () =
  let lines =
    with_log_capture (fun () ->
        Telemetry.Log.set_level Telemetry.Log.Debug;
        Telemetry.Log.set_format Telemetry.Log.Json;
        Telemetry.Log.warn ~event:"redial"
          ~fields:[ ("delay_s", "0.050") ]
          "quoted \"reason\" here")
  in
  let l = List.hd lines in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json carries " ^ needle) true (contains l needle))
    [ "\"level\":\"warn\""; "\"event\":\"redial\""; "\"delay_s\":\"0.050\"";
      "\\\"reason\\\"" ]

let test_log_level_roundtrip () =
  List.iter
    (fun l ->
      Alcotest.(check bool) "level name round-trips" true
        (Telemetry.Log.level_of_string (Telemetry.Log.level_name l) = Some l))
    [ Telemetry.Log.Debug; Telemetry.Log.Info; Telemetry.Log.Warn;
      Telemetry.Log.Error ];
  Alcotest.(check bool) "warning is an alias" true
    (Telemetry.Log.level_of_string "warning" = Some Telemetry.Log.Warn);
  Alcotest.(check bool) "unknown level rejected" true
    (Telemetry.Log.level_of_string "loud" = None)

(* {1 Prometheus exposition} *)

(* A minimal structural lint over the exposition text, mirroring
   test/expo_lint.ml: every sample belongs to the family TYPEd directly
   above it, histogram buckets are cumulative, +Inf equals _count. *)
let lint_exposition text =
  let lines = String.split_on_char '\n' text in
  let current_family = ref "" in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let base_of sample_name =
    let strip suffix name =
      let ns = String.length suffix and nn = String.length name in
      if nn >= ns && String.sub name (nn - ns) ns = suffix then
        Some (String.sub name 0 (nn - ns))
      else None
    in
    match strip "_bucket" sample_name with
    | Some b -> b
    | None -> (
        match strip "_sum" sample_name with
        | Some b -> b
        | None -> (
            match strip "_count" sample_name with
            | Some b -> b
            | None -> sample_name))
  in
  List.iter
    (fun line ->
      if line = "" then ()
      else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
        match String.split_on_char ' ' line with
        | _ :: _ :: fam :: _ -> current_family := fam
        | _ -> err "malformed TYPE line: %s" line
      end
      else if line.[0] = '#' then ()
      else begin
        let name_end =
          match (String.index_opt line '{', String.index_opt line ' ') with
          | Some b, Some s -> min b s
          | Some b, None -> b
          | None, Some s -> s
          | None, None -> String.length line
        in
        let sample = String.sub line 0 name_end in
        if !current_family = "" then err "sample before any TYPE: %s" line
        else if
          sample <> !current_family && base_of sample <> !current_family
        then
          err "sample %s under family %s" sample !current_family
      end)
    lines;
  List.rev !errors

let test_exposition_structure () =
  with_metrics_on (fun () ->
      M.reset ();
      let c = M.counter "t.expo.requests" in
      let h = M.histogram "t.expo.latency_us" in
      let w = M.window "t.expo.flow" in
      M.add c 42;
      List.iter (M.observe h) [ 1; 3; 9; 100 ];
      M.window_add w ~now:1.0 50;
      let e = Telemetry.Expo.create () in
      let keep name =
        contains name "t.expo."
      in
      Telemetry.Expo.of_metrics ~keep ~now:1.0 e;
      let text = Telemetry.Expo.to_string e in
      Alcotest.(check (list string)) "lint-clean" [] (lint_exposition text);
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("exposition carries " ^ needle) true
            (contains text needle))
        [ "jmpax_t_expo_requests_total 42";
          "# TYPE jmpax_t_expo_latency_seconds histogram";
          "jmpax_t_expo_latency_seconds_count 4";
          "le=\"+Inf\"";
          "jmpax_t_expo_flow_per_second{window=\"1s\"}" ];
      (* Cumulative buckets: extract the _bucket values in order and
         check they never decrease. *)
      let bucket_counts =
        String.split_on_char '\n' text
        |> List.filter_map (fun l ->
               if contains l "latency_seconds_bucket" then
                 match String.rindex_opt l ' ' with
                 | Some i ->
                     int_of_string_opt
                       (String.sub l (i + 1) (String.length l - i - 1))
                 | None -> None
               else None)
      in
      Alcotest.(check bool) "buckets cumulative" true
        (let rec mono = function
           | a :: (b :: _ as rest) -> a <= b && mono rest
           | _ -> true
         in
         mono bucket_counts);
      Alcotest.(check bool) "+Inf bucket equals count" true
        (match List.rev bucket_counts with last :: _ -> last = 4 | [] -> false))

let test_mangle () =
  Alcotest.(check string) "dots become underscores" "serve_events_total"
    (Telemetry.Expo.mangle "serve.events_total");
  Alcotest.(check string) "colons survive" "a:b" (Telemetry.Expo.mangle "a:b")

(* {1 Span tracing} *)

(* Summary replay from raw lines: the parser must tolerate unknown
   records and surface ill-formed nesting without failing the parse. *)
let test_summary_of_lines () =
  let lines =
    [ "{\"name\":\"decode\",\"ph\":\"B\",\"ts\":100,\"id\":1,\"tid\":1}";
      "{\"name\":\"decode\",\"ph\":\"E\",\"ts\":250,\"id\":1,\"tid\":1}";
      "{\"name\":\"mark\",\"ph\":\"i\",\"ts\":300,\"tid\":1}";
      "{\"name\":\"open\",\"ph\":\"B\",\"ts\":400,\"id\":2,\"tid\":1}" ]
  in
  match Telemetry.Summary.of_lines lines with
  | Error msg -> Alcotest.failf "of_lines: %s" msg
  | Ok s ->
      Alcotest.(check bool) "unclosed begin breaks well-formedness" false
        (Telemetry.Summary.well_formed s);
      Alcotest.(check int) "one unclosed begin" 1
        s.Telemetry.Summary.unclosed_begins;
      Alcotest.(check int) "events counted" 4 s.Telemetry.Summary.events;
      (match
         List.find_opt
           (fun (a : Telemetry.Summary.agg) -> a.Telemetry.Summary.name = "decode")
           s.Telemetry.Summary.aggs
       with
      | None -> Alcotest.fail "decode span missing from aggregates"
      | Some a ->
          Alcotest.(check int) "decode count" 1 a.Telemetry.Summary.count;
          Alcotest.(check bool) "decode total is 150us" true
            (abs_float (a.Telemetry.Summary.total_us -. 150.0) < 1e-6));
      Alcotest.(check (list (pair string int)))
        "instant counted" [ ("mark", 1) ] s.Telemetry.Summary.instants

(* Run [f] with tracing into a temp file, then replay the trace. *)
let trace_summary f =
  let path = Filename.temp_file "jmpax_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      Telemetry.Span.enable oc;
      Fun.protect
        ~finally:(fun () ->
          Telemetry.Span.disable ();
          close_out oc)
        f;
      Telemetry.Summary.of_file path)

let test_span_nesting_well_formed () =
  let summary =
    trace_summary (fun () ->
        Telemetry.Span.with_ ~name:"outer" (fun () ->
            Telemetry.Span.with_ ~name:"inner" (fun () -> ());
            Telemetry.Span.with_ ~name:"inner" (fun () ->
                Telemetry.Span.instant ~name:"mark" ()));
        (* A span that raises must still close. *)
        (try Telemetry.Span.with_ ~name:"raiser" (fun () -> failwith "boom")
         with Failure _ -> ()))
  in
  match summary with
  | Error msg -> Alcotest.failf "trace replay failed: %s" msg
  | Ok s ->
      Alcotest.(check bool) "well-formed" true (Telemetry.Summary.well_formed s);
      Alcotest.(check int) "no unmatched ends" 0 s.Telemetry.Summary.unmatched_ends;
      Alcotest.(check int) "no unclosed begins" 0 s.Telemetry.Summary.unclosed_begins;
      Alcotest.(check int) "max depth" 2 s.Telemetry.Summary.max_depth;
      let count name =
        match
          List.find_opt
            (fun (a : Telemetry.Summary.agg) -> a.Telemetry.Summary.name = name)
            s.Telemetry.Summary.aggs
        with
        | Some a -> a.Telemetry.Summary.count
        | None -> 0
      in
      Alcotest.(check int) "outer once" 1 (count "outer");
      Alcotest.(check int) "inner twice" 2 (count "inner");
      Alcotest.(check int) "raiser closed" 1 (count "raiser");
      Alcotest.(check (list (pair string int)))
        "instant marker" [ ("mark", 1) ] s.Telemetry.Summary.instants

let test_spans_from_worker_domains () =
  (* Spans emitted from spawned domains: the per-domain stacks must
     keep the stream well-formed. *)
  let summary =
    trace_summary (fun () ->
        let worker () = Telemetry.Span.with_ ~name:"worker" (fun () -> ()) in
        let ds = List.init 3 (fun _ -> Domain.spawn worker) in
        Telemetry.Span.with_ ~name:"main" (fun () -> ());
        List.iter Domain.join ds)
  in
  match summary with
  | Error msg -> Alcotest.failf "trace replay failed: %s" msg
  | Ok s ->
      Alcotest.(check bool) "well-formed" true (Telemetry.Summary.well_formed s)

(* {1 Differential: instrumentation must not change results} *)

let observe program script vars =
  let relevance = Mvc.Relevance.writes_of_vars vars in
  let r = Tml.Vm.run_program ~relevance ~sched:(Tml.Sched.of_script script) program in
  let init = List.filter (fun (x, _) -> List.mem x vars) program.Tml.Ast.shared in
  Observer.Computation.of_messages_exn
    ~nthreads:(List.length program.Tml.Ast.threads)
    ~init r.Tml.Vm.messages

let analyzer_output () =
  let comp =
    observe Tml.Programs.landing_bounded Tml.Programs.landing_observed
      [ "landing"; "approved"; "radio" ]
  in
  let report = Predict.Counterexample.check ~spec:Pastltl.Formula.landing_spec comp in
  let a = Predict.Analyzer.analyze ~spec:Pastltl.Formula.landing_spec comp in
  Format.asprintf "%a@.levels=%d cuts=%d violated=%b@." Predict.Counterexample.pp_report
    report a.Predict.Analyzer.stats.Predict.Analyzer.levels
    a.Predict.Analyzer.stats.Predict.Analyzer.cuts_visited
    (Predict.Analyzer.violated a)

let test_instrumentation_off_is_identical () =
  M.disable ();
  let baseline = analyzer_output () in
  let with_on =
    with_metrics_on (fun () ->
        let path = Filename.temp_file "jmpax_trace" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            let oc = open_out path in
            Telemetry.Span.enable oc;
            Fun.protect
              ~finally:(fun () ->
                Telemetry.Span.disable ();
                close_out oc)
              analyzer_output))
  in
  Alcotest.(check string) "byte-identical analyzer output" baseline with_on;
  let again = analyzer_output () in
  Alcotest.(check string) "and identical after disabling again" baseline again

let () =
  Alcotest.run "telemetry"
    [ ( "registry",
        [ Alcotest.test_case "counter identity" `Quick test_counter_identity;
          Alcotest.test_case "gauge set_max" `Quick test_gauge_set_max;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "series cap" `Quick test_series_cap_and_drop;
          Alcotest.test_case "reset" `Quick test_reset ] );
      ( "concurrency",
        [ Alcotest.test_case "counters across domains" `Quick test_concurrent_counters ] );
      ( "windows",
        [ QCheck_alcotest.to_alcotest test_window_law_qcheck;
          Alcotest.test_case "slots roll off" `Quick test_window_rolls_off ] );
      ( "quantiles",
        [ Alcotest.test_case "monotone in q" `Quick test_quantile_monotone;
          Alcotest.test_case "single bucket" `Quick test_quantile_single_bucket ] );
      ( "log",
        [ Alcotest.test_case "text format" `Quick test_log_text_format;
          Alcotest.test_case "json format" `Quick test_log_json_format;
          Alcotest.test_case "level names" `Quick test_log_level_roundtrip ] );
      ( "exposition",
        [ Alcotest.test_case "structure" `Quick test_exposition_structure;
          Alcotest.test_case "mangle" `Quick test_mangle ] );
      ( "spans",
        [ Alcotest.test_case "nesting well-formed" `Quick test_span_nesting_well_formed;
          Alcotest.test_case "worker domains" `Quick test_spans_from_worker_domains;
          Alcotest.test_case "summary from lines" `Quick test_summary_of_lines ] );
      ( "differential",
        [ Alcotest.test_case "off is byte-identical" `Quick
            test_instrumentation_off_is_identical ] )
    ]

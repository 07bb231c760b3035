(* The performance ledger: one seeded workload set, end-to-end metrics
   from an untraced run, per-layer metrics from a traced one.

     ledger.exe [--seed N] [--workload W]... [--seconds S] [--trace [0|1]]
                [--out FILE] [--chrome FILE]
     ledger.exe compare PARENT CHANGE
     ledger.exe baseline NAME=FILE...
     ledger.exe selftest BENCHMARK_JSON

   See README.md next to this file for the workloads, the metric
   definitions and how to compare two commits. *)

let held_out_seed = 7
let default_seconds = 22.0

(* {1 The metric catalogue}

   Names and units as BENCHMARK.json lists them; the self-test holds the
   two in step. *)

let end_to_end =
  [ ("eps", "events/s"); ("latency_p50_ms", "ms"); ("peak_rss_mb", "MiB"); ("setup_s", "s") ]

let per_layer =
  [ ("tml.compile.self_ms", "ms");
    ("tml.vm.ns_per_event", "ns/event");
    ("tml.vm.share", "ratio");
    ("mvc.emit.ns_per_event", "ns/event");
    ("mvc.emit.words_per_event", "words/event");
    ("mvc.emit.share", "ratio");
    ("mvc.algorithm.default.ns_per_event", "ns/event");
    ("mvc.algorithm.default.words_per_event", "words/event");
    ("mvc.algorithm.best_other_ratio", "ratio");
    ("check.analysis.ns_per_event", "ns/event");
    ("check.analysis.share", "ratio");
    ("wire.encode.ns_per_event", "ns/event");
    ("wire.decode.ns_per_event", "ns/event");
    ("wire.decode.share", "ratio");
    ("wire.bytes_per_event", "B/event");
    ("transport.read.share", "ratio");
    ("causal.ns_per_event", "ns/event");
    ("causal.peak_buffered", "count");
    ("engine.lattice.ns_per_event", "ns/event");
    ("engine.lattice.words_per_event", "words/event");
    ("engine.lattice.share", "ratio");
    ("engine.race.ns_per_event", "ns/event");
    ("engine.race.words_per_event", "words/event");
    ("engine.race.share", "ratio");
    ("engine.atomicity.ns_per_event", "ns/event");
    ("engine.atomicity.words_per_event", "words/event");
    ("engine.atomicity.share", "ratio");
    ("lattice.peak_frontier_cuts", "count");
    ("lattice.monitor_steps_per_event", "steps/event");
    ("checkpoint.write_us", "us");
    ("checkpoint.bytes", "B");
    ("checkpoint.writes_per_session", "count");
    ("checkpoint.share", "ratio");
    ("budget.degraded_sessions", "count");
    ("budget.hog_share", "ratio");
    ("serve.session.ns_per_event", "ns/event");
    ("serve.handshake_us", "us");
    ("serve.overhead.share", "ratio");
    ("verdict.lag_p95_ms", "ms");
    ("trace.overhead_ratio", "ratio");
    ("trace.coverage", "ratio") ]

(* {1 One run of one workload} *)

type metric = {
  name : string;
  unit_ : string;
  value : float;
  n : int;  (** samples behind [value] *)
  p25 : float;
  p75 : float;
}

let single name unit_ value = { name; unit_; value; n = 1; p25 = value; p75 = value }

let summarize name unit_ ?(stat = Stats.median) samples =
  let p25, p75 = Stats.quartiles samples in
  { name; unit_; value = stat samples; n = List.length samples; p25; p75 }

type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;  (** the JSON result: BENCHMARK.json's set for this mode *)
  extra : metric list;  (** printed and written with --out, not in the JSON result *)
}

(* Times divided and rates multiplied by the machine-speed factor
   ([Calib]): what the run would have measured on the reference
   machine. *)
let normalize factor m =
  let scale =
    match m.unit_ with
    | "s" | "ms" | "us" | "ns/event" -> 1.0 /. factor
    | "events/s" -> factor
    | _ -> 1.0
  in
  { m with value = m.value *. scale; p25 = m.p25 *. scale; p75 = m.p75 *. scale }

let pp_value v = if Float.is_nan v then "n/a" else Printf.sprintf "%.6g" v

let line workload m =
  Printf.sprintf "%s %s %s %s (n=%d)" workload m.name (pp_value m.value) m.unit_ m.n

let result_json o =
  Json.Obj
    [ ("correct", Json.Bool (o.failed = 0));
      ("attempted", Json.Num (float_of_int o.attempted));
      ("failed", Json.Num (float_of_int o.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun m -> (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
             o.metrics) ) ]

let self_time_table emit workload (t : Workloads.traced) =
  emit (Printf.sprintf "%s self-time (traced wall %.3f s)" workload t.Workloads.wall);
  emit
    (Printf.sprintf "  %-22s %7s %11s %11s %7s %12s" "span" "calls" "total ms" "self ms" "self%"
       "words/call");
  let covered = ref 0.0 in
  List.iter
    (fun (s : Span.summary) ->
      covered := !covered +. s.Span.self;
      emit
        (Printf.sprintf "  %-22s %7d %11.2f %11.2f %6.1f%% %12.0f" s.Span.s_name s.Span.calls
           (s.Span.total *. 1e3) (s.Span.self *. 1e3)
           (100.0 *. s.Span.self /. t.Workloads.wall)
           (s.Span.s_words /. float_of_int s.Span.calls)))
    t.Workloads.table;
  emit
    (Printf.sprintf "  %-22s %7s %11s %11.2f %6.1f%%" "glue" "" ""
       ((t.Workloads.wall -. !covered) *. 1e3)
       (100.0 *. (t.Workloads.wall -. !covered) /. t.Workloads.wall))

(* Extra per-layer lines (one per registered clock backend) carry their
   unit in their name. *)
let unit_of_extra name =
  if Filename.check_suffix name "ns_per_event" then "ns/event" else "words/event"

let traced_outcome emit workload (t : Workloads.traced) =
  self_time_table emit workload t;
  let layers = t.Workloads.layers in
  let value name = match List.assoc_opt name layers with Some v -> v | None -> 0.0 in
  { attempted = t.Workloads.t_attempted;
    failed = t.Workloads.t_failed;
    metrics = List.map (fun (name, unit_) -> single name unit_ (value name)) per_layer;
    extra =
      List.filter_map
        (fun (name, v) ->
          if List.mem_assoc name per_layer then None else Some (single name (unit_of_extra name) v))
        layers }

let untraced_outcome (m : Workloads.measured) ~setup_times =
  let p95 samples = Stats.percentile samples 95 in
  { attempted = m.Workloads.attempted;
    failed = m.Workloads.failed;
    metrics =
      [ summarize "eps" "events/s" m.Workloads.eps;
        summarize "latency_p50_ms" "ms" m.Workloads.latency_ms;
        single "peak_rss_mb" "MiB" m.Workloads.rss_mb;
        summarize "setup_s" "s" setup_times ];
    (* Measured and reported, but too noisy run to run on a shared
       machine to judge a change by (see README.md). *)
    extra =
      [ summarize "latency_p95_ms" "ms" ~stat:p95 m.Workloads.latency_ms;
        (if m.Workloads.lag_ms = [] then { (single "lag_p95_ms" "ms" nan) with n = 0 }
         else summarize "lag_p95_ms" "ms" ~stat:p95 m.Workloads.lag_ms);
        single "failed_frac" "ratio"
          (float_of_int m.Workloads.failed /. float_of_int m.Workloads.attempted) ] }

(* One run of one workload, in a scratch directory of its own. *)
let run_workload ~profile ~workload ~seed ~seconds ~trace ~tamper ~emit ~chrome =
  let (module W : Workloads.S) = List.assoc workload Workloads.all in
  let home = Sys.getcwd () in
  let dir = Inputs.make_run_dir workload in
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir home;
      Inputs.remove_run_dir dir)
    (fun () ->
      (* Set up several times and keep the last: [setup_s] is the median,
         so work moved into set-up shows without one slow set-up
         deciding it. *)
      Calib.reset ();
      let setup_times = ref [] and env = ref None in
      for index = 0 to profile.Workloads.setups - 1 do
        Option.iter W.close !env;
        env := None;
        Calib.sample ();
        let t0 = Unix.gettimeofday () in
        let e = W.setup profile ~seed ~tamper ~index in
        setup_times := (Unix.gettimeofday () -. t0) :: !setup_times;
        env := Some e
      done;
      let env = Option.get !env in
      let events, digest = W.fingerprint env in
      emit (Printf.sprintf "%s inputs seed=%d events=%d digest=%s" workload seed events digest);
      let o =
        Fun.protect
          ~finally:(fun () -> W.close env)
          (fun () ->
            if trace then begin
              let t = W.trace env ~seconds in
              Option.iter Span.write_chrome chrome;
              traced_outcome emit workload t
            end
            else untraced_outcome (W.measure env ~seconds) ~setup_times:!setup_times)
      in
      let f = Calib.factor () in
      let o =
        { o with
          metrics = List.map (normalize f) o.metrics;
          extra =
            List.map (normalize f) o.extra
            @ [ { (single "calibration_ms" "ms" (Calib.median_ms ())) with
                  n = List.length !Calib.samples } ] }
      in
      List.iter (fun m -> emit (line workload m)) (o.metrics @ o.extra);
      o)

(* {1 Result rows} *)

let commit () =
  match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
  | ic ->
      let c = try input_line ic with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      if c = "" then "unknown" else c
  | exception Unix.Unix_error _ -> "unknown"

let append_rows path ~workload ~seed (o : outcome) =
  let commit = commit () in
  let nproc = Domain.recommended_domain_count () in
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun m ->
          if not (Float.is_nan m.value) then
            output_string oc
              (Json.to_string
                 (Json.Obj
                    [ ("commit", Json.Str commit);
                      ("nproc", Json.Num (float_of_int nproc));
                      ("seed", Json.Num (float_of_int seed));
                      ("workload", Json.Str workload);
                      ("metric", Json.Str m.name);
                      ("unit", Json.Str m.unit_);
                      ("value", Json.Num m.value);
                      ("n", Json.Num (float_of_int m.n));
                      ("p25", Json.Num (if Float.is_nan m.p25 then m.value else m.p25));
                      ("p75", Json.Num (if Float.is_nan m.p75 then m.value else m.p75)) ])
              ^ "\n"))
        (o.metrics @ o.extra))

(* {1 compare and baseline} *)

type bound = { metric : string; better : string; bound : float }

(* The bounds of the benchmark in the current directory. *)
let bounds_of () =
  List.map
    (fun j ->
      { metric = Json.get_string "name" j;
        better = Json.get_string "better" j;
        bound = (match Json.member "bound" j with Some (Json.Num b) -> b | _ -> 0.0) })
    (Json.get_list "end_to_end" (Json.read_file "BENCHMARK.json"))

(* Per (workload, metric): the value of every run, in file order. *)
let runs_of path =
  let table = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun row ->
      let key = (Json.get_string "workload" row, Json.get_string "metric" row) in
      if not (Hashtbl.mem table key) then order := key :: !order;
      Hashtbl.replace table key
        ((match Hashtbl.find_opt table key with Some l -> l | None -> [])
        @ [ Json.get_num "value" row ]))
    (Json.read_lines path);
  (table, List.rev !order)

type verdict = Improved | Worse | Unresolved | Unchanged

let verdict_name = function
  | Improved -> "improved"
  | Worse -> "worse"
  | Unresolved -> "unresolved"
  | Unchanged -> "unchanged"

(* The rule for a claimed gain: the change wins at least 9 in 10 pairs
   (ties count for neither) and the medians differ by more than the
   parent's own quartile distance.  Where either side's spread is wider
   than the bound, nothing is claimed unless every change run beats
   every parent run. *)
let judge b parent change =
  let better x y = if b.better = "higher" then x > y else x < y in
  let mp = Stats.median parent and mc = Stats.median change in
  let q1, q3 = Stats.quartiles parent in
  let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
  let pairs = zip parent change in
  let wins = List.length (List.filter (fun (p, c) -> better c p) pairs) in
  let worse_by = (if b.better = "higher" then mp -. mc else mc -. mp) /. mp in
  let gain =
    better mc mp
    && float_of_int wins >= 0.9 *. float_of_int (List.length pairs)
    && Float.abs (mc -. mp) > q3 -. q1
  in
  let separated =
    List.for_all (fun c -> List.for_all (fun p -> better c p) parent) change
  in
  let verdict =
    if gain && (separated || (Stats.spread parent <= b.bound && Stats.spread change <= b.bound))
    then Improved
    else if worse_by > b.bound then Worse
    else if Stats.spread parent > b.bound || Stats.spread change > b.bound then Unresolved
    else Unchanged
  in
  (verdict, wins, List.length pairs, worse_by)

let compare_files parent_path change_path =
  let bounds = bounds_of () in
  let parent, order = runs_of parent_path in
  let change, _ = runs_of change_path in
  Printf.printf "%-15s %-15s %26s %26s %8s %6s  %s\n" "workload" "metric" "parent median [q1, q3]"
    "change median [q1, q3]" "worse by" "wins" "verdict";
  let worst = ref 0 in
  List.iter
    (fun ((workload, metric) as key) ->
      match
        (List.find_opt (fun b -> b.metric = metric) bounds, Hashtbl.find_opt change key)
      with
      | Some b, Some cs ->
          let ps = Hashtbl.find parent key in
          let v, wins, pairs, worse_by = judge b ps cs in
          let cell vs =
            let q1, q3 = Stats.quartiles vs in
            Printf.sprintf "%.4g [%.4g, %.4g]" (Stats.median vs) q1 q3
          in
          Printf.printf "%-15s %-15s %26s %26s %7.1f%% %3d/%-2d  %s\n" workload metric (cell ps)
            (cell cs) (100.0 *. worse_by) wins pairs (verdict_name v);
          if v = Worse then worst := 1
      | _ -> ())
    order;
  !worst

(* The committed baseline: named sets of runs, per (workload, metric)
   their values, median, quartiles and spread, and how far the first
   two sets' medians sit apart against each metric's bound. *)
let baseline sets =
  let bounds = bounds_of () in
  let loaded = List.map (fun (name, path) -> (name, path, runs_of path)) sets in
  let summary (table, order) =
    Json.Arr
      (List.map
         (fun ((workload, metric) as key) ->
           let vs = Hashtbl.find table key in
           let q1, q3 = Stats.quartiles vs in
           Json.Obj
             [ ("workload", Json.Str workload);
               ("metric", Json.Str metric);
               ("runs", Json.Num (float_of_int (List.length vs)));
               ("median", Json.Num (Stats.median vs));
               ("p25", Json.Num q1);
               ("p75", Json.Num q3);
               ( "spread",
                 Json.Num
                   (if List.length vs > 1 && Stats.median vs <> 0.0 then Stats.spread vs else 0.0)
               );
               ("values", Json.Arr (List.map (fun v -> Json.Num v) vs)) ])
         order)
  in
  let first_row path =
    match Json.read_lines path with
    | row :: _ -> row
    | [] -> failwith (path ^ ": no rows")
  in
  let agreement =
    match loaded with
    | (_, _, (a, order)) :: (_, _, (b, _)) :: _ ->
        List.filter_map
          (fun ((workload, metric) as key) ->
            match (List.find_opt (fun x -> x.metric = metric) bounds, Hashtbl.find_opt b key) with
            | Some bd, Some vb ->
                let ma = Stats.median (Hashtbl.find a key) and mb = Stats.median vb in
                let worse_by = (if bd.better = "higher" then ma -. mb else mb -. ma) /. ma in
                Some
                  (Json.Obj
                     [ ("workload", Json.Str workload);
                       ("metric", Json.Str metric);
                       ("bound", Json.Num bd.bound);
                       ("second_worse_by", Json.Num worse_by);
                       ("within_bound", Json.Bool (worse_by <= bd.bound)) ])
            | _ -> None)
          order
    | _ -> []
  in
  let _, first_path, _ = List.hd loaded in
  let row = first_row first_path in
  Json.Obj
    [ ("commit", Json.Str (Json.get_string "commit" row));
      ("nproc", Json.Num (Json.get_num "nproc" row));
      ("held_out_seed", Json.Num (float_of_int held_out_seed));
      ( "sets",
        Json.Arr
          (List.map
             (fun (name, path, runs) ->
               Json.Obj
                 [ ("name", Json.Str name);
                   ("seed", Json.Num (Json.get_num "seed" (first_row path)));
                   ("metrics", summary runs) ])
             loaded) );
      ("agreement", Json.Arr agreement) ]

(* {1 The smoke self-test}

   Tiny sizes, every workload in both modes plus once with a tampered
   reference: every metric BENCHMARK.json names must be printed with its
   unit, no operation may fail on honest references, and a tampered one
   must be counted as a failure. *)

let selftest benchmark =
  let spec = Json.read_file benchmark in
  let listed key =
    List.map (fun j -> (Json.get_string "name" j, Json.get_string "unit" j)) (Json.get_list key spec)
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if listed "end_to_end" <> end_to_end then problem "end_to_end in %s differs from the ledger" benchmark;
  if listed "per_layer" <> per_layer then problem "per_layer in %s differs from the ledger" benchmark;
  let workloads = List.map (fun j -> Json.get_string "name" j) (Json.get_list "workloads" spec) in
  if workloads <> List.map fst Workloads.all then problem "workloads in %s differ from the ledger" benchmark;
  List.iter
    (fun workload ->
      List.iter
        (fun (trace, tamper) ->
          let out = Buffer.create 1024 in
          let emit l = Buffer.add_string out (l ^ "\n") in
          let o =
            run_workload ~profile:Workloads.tiny ~workload ~seed:1 ~seconds:0.1 ~trace ~tamper
              ~emit ~chrome:None
          in
          let text = Buffer.contents out in
          let mode = if tamper then "tampered" else if trace then "traced" else "untraced" in
          if tamper then begin
            if o.failed = 0 then problem "%s: a tampered reference was not counted as a failure" workload
          end
          else begin
            if o.failed <> 0 then problem "%s %s: %d of %d operations failed" workload mode o.failed o.attempted;
            List.iter
              (fun (name, unit_) ->
                match List.find_opt (fun m -> m.name = name) o.metrics with
                | Some m when m.unit_ = unit_ && Float.is_finite m.value ->
                    let prefix = Printf.sprintf "%s %s " workload name in
                    let printed =
                      List.exists
                        (fun l ->
                          String.length l >= String.length prefix
                          && String.sub l 0 (String.length prefix) = prefix
                          && Daemon.contains ~needle:(" " ^ unit_ ^ " (n=") l)
                        (String.split_on_char '\n' text)
                    in
                    if not printed then problem "%s %s: %s not printed with its unit" workload mode name
                | Some m -> problem "%s %s: %s = %g %s" workload mode name m.value m.unit_
                | None -> problem "%s %s: %s missing" workload mode name)
              (if trace then per_layer else end_to_end);
            if List.length o.metrics <> List.length (if trace then per_layer else end_to_end) then
              problem "%s %s: unexpected metrics in the result" workload mode
          end)
        [ (false, false); (true, false); (false, true) ])
    workloads;
  match !problems with
  | [] -> print_endline "ledger selftest: ok"
  | ps ->
      List.iter (fun p -> prerr_endline ("ledger selftest: " ^ p)) (List.rev ps);
      exit 1

(* {1 Command line} *)

let usage () =
  prerr_endline
    (Printf.sprintf
       "usage: ledger.exe [--seed N] [--workload W]... [--seconds S] [--trace [0|1]]\n\
       \                  [--out FILE] [--chrome FILE]\n\
       \       ledger.exe compare PARENT CHANGE\n\
       \       ledger.exe baseline NAME=FILE...\n\
       \       ledger.exe selftest BENCHMARK_JSON\n\
        workloads: %s\n\
        held-out seed (never use it while developing a change): %d"
       (String.concat ", " (List.map fst Workloads.all))
       held_out_seed);
  exit 2

let absolute path = if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path

let main_run args =
  let seed = ref 1 and workloads = ref [] and seconds = ref default_seconds in
  let trace = ref false and out = ref None and chrome = ref None in
  let rec parse = function
    | [] -> ()
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--workload" :: w :: rest ->
        if not (List.mem_assoc w Workloads.all) then usage ();
        workloads := !workloads @ [ w ];
        parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
    | "--trace" :: rest -> trace := true; parse rest
    | "--out" :: f :: rest -> out := Some (absolute f); parse rest
    | "--chrome" :: f :: rest -> chrome := Some (absolute f); parse rest
    | _ -> usage ()
  in
  (try parse args with Failure _ -> usage ());
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match !workloads with
  | [ workload ] ->
      let o =
        run_workload ~profile:Workloads.full ~workload ~seed:!seed ~seconds:!seconds ~trace:!trace
          ~tamper:false ~emit:print_endline ~chrome:!chrome
      in
      Option.iter (fun path -> append_rows path ~workload ~seed:!seed o) !out;
      print_endline (Json.to_string (result_json o));
      if o.failed > 0 then exit 1
  | ws ->
      (* Every workload in a fresh process, so heap state and peak RSS
         stay its own. *)
      let ws = if ws = [] then List.map fst Workloads.all else ws in
      let worst =
        List.fold_left
          (fun worst w ->
            let argv =
              [ Sys.executable_name; "--workload"; w; "--seed"; string_of_int !seed; "--seconds";
                Printf.sprintf "%g" !seconds; "--trace"; (if !trace then "1" else "0") ]
              @ (match !out with Some f -> [ "--out"; f ] | None -> [])
            in
            flush stdout;
            let pid =
              Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin Unix.stdout
                Unix.stderr
            in
            match Unix.waitpid [] pid with
            | _, Unix.WEXITED c -> max worst c
            | _ -> max worst 1)
          0 ws
      in
      exit worst

let () =
  match Array.to_list Sys.argv with
  | [ _; "compare"; p; c ] -> exit (compare_files p c)
  | _ :: "baseline" :: sets ->
      let sets =
        List.map
          (fun s ->
            match String.index_opt s '=' with
            | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
            | None -> usage ())
          sets
      in
      if sets = [] then usage ();
      print_endline (Json.pretty (baseline sets))
  | [ _; "selftest"; benchmark ] -> selftest benchmark
  | _ :: args -> main_run args
  | [] -> usage ()

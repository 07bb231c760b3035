open Trace

type output = {
  spec : Pastltl.Formula.t;
  relevant_vars : Types.var list;
  run : Tml.Vm.run_result;
  delivered : Message.t list;
  computation : Observer.Computation.t;
  predictive : Predict.Analyzer.report;
  observed_ok : bool;
  races : Predict.Race.report option;
  deadlocks : Predict.Lockgraph.report option;
  atomicity : Predict.Atomicity.report option;
  engines : (string * string) list;
  engines_violated : bool;
}

(* {1 Telemetry} *)

let telemetry_sink dest =
  if dest = "-" then (stdout, false) else (open_out dest, true)

(* Algorithm A counts its joins unconditionally (two field writes per
   join); publishing the counts as gauges at dump time folds them into
   the one metrics report.  A dense join writes all n entries, never
   none, so [fast_joins] reads 0. *)
let publish_join_stats () =
  let s = Mvc.Algorithm.join_stats () in
  let set name v = Telemetry.Metrics.set (Telemetry.Metrics.gauge ("clock.dense." ^ name)) v in
  set "joins" s.joins;
  set "entry_updates" s.entry_updates;
  set "fast_joins" 0

let dump_metrics dest =
  publish_join_stats ();
  let text =
    if Filename.check_suffix dest ".json" then Telemetry.Metrics.to_json ()
    else Telemetry.Metrics.to_text ()
  in
  let oc, close = telemetry_sink dest in
  output_string oc text;
  if close then close_out oc else flush oc

let with_telemetry (config : Config.t) f =
  match (config.Config.metrics, config.Config.trace) with
  | None, None -> f ()
  | metrics, trace ->
      let trace_ch =
        Option.map
          (fun dest ->
            let oc, close = telemetry_sink dest in
            Telemetry.Span.enable oc;
            (oc, close))
          trace
      in
      if metrics <> None then begin
        Telemetry.Metrics.reset ();
        Mvc.Algorithm.reset_join_stats ();
        Telemetry.Metrics.enable_deep ()
      end;
      Fun.protect
        ~finally:(fun () ->
          (match trace_ch with
          | Some (oc, close) ->
              Telemetry.Span.disable ();
              if close then close_out oc
          | None -> ());
          match metrics with
          | Some dest ->
              Telemetry.Metrics.disable ();
              dump_metrics dest
          | None -> ())
        f

let apply_channel config messages =
  match config.Config.channel with
  | Config.In_order -> Observer.Channel.identity messages
  | Config.Shuffled seed -> Observer.Channel.shuffle ~seed messages
  | Config.Bounded (seed, window) -> Observer.Channel.bounded_reorder ~seed ~window messages

let check ?(config = Config.default ()) ~spec program =
  let relevant_vars = Pastltl.Formula.vars spec in
  let image = Tml.Instrument.instrument_program program in
  let relevance = Mvc.Relevance.writes_of_vars relevant_vars in
  let run =
    Tml.Vm.run_image ~fuel:config.Config.fuel ~relevance ~sched:config.Config.sched image
  in
  (match run.Tml.Vm.outcome with
  | Tml.Vm.Runtime_error { tid; message } ->
      invalid_arg (Printf.sprintf "Pipeline.check: runtime error in thread %d: %s" tid message)
  | Tml.Vm.Completed | Tml.Vm.Deadlocked _ | Tml.Vm.Fuel_exhausted -> ());
  let init =
    List.filter (fun (x, _) -> List.mem x relevant_vars) program.Tml.Ast.shared
  in
  let nthreads = List.length program.Tml.Ast.threads in
  (* Ship the messages through the configured channel into the online
     observer, in the order they arrive. *)
  let delivered = apply_channel config run.Tml.Vm.messages in
  let computation =
    match Observer.Computation.of_messages ~nthreads ~init delivered with
    | Ok c -> c
    | Error msg -> invalid_arg ("Pipeline.check: observer could not reassemble: " ^ msg)
  in
  let predictive = Predict.Analyzer.sweep ~spec ~nthreads ~init delivered in
  let observed_ok =
    Predict.Analyzer.observed_run_verdict ~spec ~init run.Tml.Vm.messages
  in
  let deadlocks =
    if config.Config.detect_deadlocks then
      Option.map Predict.Lockgraph.analyze run.Tml.Vm.exec
    else None
  in
  (* One sync-clock pass serves the race and atomicity reports and the
     [--engine race,atomicity] verdict lines, which equal the streaming
     engines' lines for [jmpax run]/[stream] on the same execution. *)
  let engine_kinds =
    List.filter (fun k -> k <> Predict.Engine.Lattice) config.Config.engines
  in
  let race_report, atomicity_report =
    match run.Tml.Vm.exec with
    | None -> (None, None)
    | Some exec ->
        Predict.Engines.analyze ~metered:engine_kinds
          ((if config.Config.detect_races then [ Predict.Engine.Race ] else [])
          @ (if config.Config.detect_atomicity then [ Predict.Engine.Atomicity ] else [])
          @ engine_kinds)
          exec
  in
  let races = if config.Config.detect_races then race_report else None in
  let atomicity = if config.Config.detect_atomicity then atomicity_report else None in
  let engine_line = function
    | Predict.Engine.Race ->
        Option.map
          (fun r -> (("race", Predict.Race.verdict_of_report r), not (Predict.Race.race_free r)))
          race_report
    | Predict.Engine.Atomicity ->
        Option.map
          (fun r ->
            ( ("atomicity", Predict.Atomicity.verdict_of_report r),
              not (Predict.Atomicity.serializable r) ))
          atomicity_report
    | Predict.Engine.Lattice -> None
  in
  let engine_lines = List.filter_map engine_line engine_kinds in
  let engines = List.map fst engine_lines in
  let engines_violated = List.exists snd engine_lines in
  { spec; relevant_vars; run; delivered; computation; predictive; observed_ok;
    races; deadlocks; atomicity; engines; engines_violated }

let check_source ?config ~spec source =
  check ?config ~spec:(Pastltl.Fparser.parse spec) (Tml.Parser.parse_program source)

let predicted_violation output = Predict.Analyzer.violated output.predictive
let missed_by_baseline output = predicted_violation output && output.observed_ok

(* Every front end (check, jmpax stream, jmpax serve) prints its verdict
   through this one function, so the outputs stay byte-comparable. *)
let verdict_line violated =
  Printf.sprintf "predictive verdict (JMPaX): %s"
    (if violated then "VIOLATION PREDICTED" else "no violation in any run")

(* A degraded bundle shed its lattice engine mid-stream under a resource
   budget: the verdict only covers what the surviving linear-time
   engines saw, so the line says so explicitly instead of claiming "no
   violation in any run".  A violation found before (or after) the
   degrade point is still reported — degradation loses coverage, never
   an already-established verdict. *)
let degraded_verdict_line d =
  Printf.sprintf "predictive verdict (JMPaX): %sdegraded(from=%s,reason=%s,at_event=%d)"
    (if d.Predict.Engines.d_violated then "VIOLATION PREDICTED " else "")
    d.Predict.Engines.d_from d.Predict.Engines.d_reason
    d.Predict.Engines.d_at_event

let pp_output ppf o =
  Format.fprintf ppf
    "@[<v>spec: %a@,relevant variables: {%s}@,monitored run: %a, %d steps, %d messages@,\
     observed-run verdict (JPaX baseline): %s@,%s@,%a@,%a@,%a@]"
    Pastltl.Formula.pp o.spec
    (String.concat ", " o.relevant_vars)
    Tml.Vm.pp_outcome o.run.Tml.Vm.outcome o.run.Tml.Vm.steps
    (List.length o.run.Tml.Vm.messages)
    (if o.observed_ok then "no violation" else "VIOLATION")
    (verdict_line (predicted_violation o))
    Predict.Analyzer.pp_report o.predictive
    (Format.pp_print_option Predict.Race.pp_report)
    o.races
    (Format.pp_print_option Predict.Lockgraph.pp_report)
    o.deadlocks;
  Format.fprintf ppf "@,%a"
    (Format.pp_print_option Predict.Atomicity.pp_report)
    o.atomicity;
  List.iter (fun (_, line) -> Format.fprintf ppf "@,%s" line) o.engines

(* jmpax: predictive runtime analysis of TML programs from the command
   line. Subcommands mirror the pipeline stages: run, check, lattice,
   race, deadlock, compare, examples. *)

open Cmdliner

(* {1 Shared options} *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_program ~example ~file =
  match (example, file) with
  | Some name, None -> (
      match Tml.Programs.source_of_name name with
      | Some src -> Ok (Tml.Parser.parse_program src)
      | None ->
          Error
            (Printf.sprintf "unknown example %S; try 'jmpax examples'" name))
  | None, Some path -> (
      match Tml.Parser.parse_program (read_file path) with
      | p -> Ok p
      | exception Tml.Parser.Error (msg, pos) ->
          Error (Format.asprintf "%s: %s at %a" path msg Tml.Lexer.pp_pos pos)
      | exception Tml.Lexer.Error (msg, pos) ->
          Error (Format.asprintf "%s: %s at %a" path msg Tml.Lexer.pp_pos pos)
      | exception Sys_error msg -> Error msg)
  | None, None -> Error "provide a program with --file or --example"
  | Some _, Some _ -> Error "--file and --example are mutually exclusive"

let example_arg =
  let doc = "Use the named built-in example program (see $(b,jmpax examples))." in
  Arg.(value & opt (some string) None & info [ "e"; "example" ] ~docv:"NAME" ~doc)

let file_arg =
  let doc = "Read the TML program from $(docv)." in
  Arg.(value & opt (some file) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)

let spec_arg =
  let doc =
    "The past-time LTL specification to check at every state, e.g. \
     $(b,\"start landing == 1 ==> [approved == 1, radio == 0)\")."
  in
  Arg.(value & opt (some string) None & info [ "s"; "spec" ] ~docv:"SPEC" ~doc)

let seed_arg =
  let doc = "Seed of the random scheduler for the monitored run." in
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc)

let engine_arg =
  let doc =
    "Analysis engines to run, comma-separated and repeatable: \
     $(b,lattice) (the predictive past-time LTL analysis over the \
     computation lattice; default), $(b,race) (streaming happens-before \
     data-race prediction) and $(b,atomicity) (streaming sync-block \
     serializability).  E.g. $(b,--engine race,atomicity)."
  in
  Arg.(value & opt_all string [] & info [ "engine" ] ~docv:"ENGINES" ~doc)

let fuel_arg =
  let doc = "Maximum observable steps before the run is cut off." in
  Arg.(value & opt int 100_000 & info [ "fuel" ] ~docv:"N" ~doc)

let channel_arg =
  let doc =
    "Delivery model between program and observer: $(b,in-order), \
     $(b,shuffle:SEED) or $(b,window:SEED:K)."
  in
  Arg.(value & opt string "in-order" & info [ "channel" ] ~docv:"MODEL" ~doc)

let metrics_arg =
  let doc =
    "Record telemetry metrics during the run and dump the registry to \
     $(docv) afterwards ($(b,-) for stdout; a $(b,.json) suffix selects \
     the JSON exporter)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let log_level_arg =
  let doc =
    "Structured-log threshold: $(b,debug), $(b,info), $(b,warn) or \
     $(b,error).  Every daemon lifecycle event (accept, reject, evict, \
     redial, checkpoint, drain) emits one greppable $(b,event=...) line \
     on stderr."
  in
  Arg.(value
       & opt (enum [ ("debug", Telemetry.Log.Debug); ("info", Telemetry.Log.Info);
                     ("warn", Telemetry.Log.Warn); ("error", Telemetry.Log.Error) ])
           Telemetry.Log.Info
       & info [ "log-level" ] ~docv:"LEVEL" ~doc)

let log_format_arg =
  let doc = "Structured-log format: $(b,text) (key=value) or $(b,json)." in
  Arg.(value
       & opt (enum [ ("text", Telemetry.Log.Text); ("json", Telemetry.Log.Json) ])
           Telemetry.Log.Text
       & info [ "log-format" ] ~docv:"FORMAT" ~doc)

let trace_arg =
  let doc =
    "Write a Chrome-trace span stream of the pipeline stages to $(docv) \
     (load it in chrome://tracing or Perfetto, or summarize it with \
     $(b,jmpax stats))."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let parse_channel s =
  match String.split_on_char ':' s with
  | [ "in-order" ] -> Ok Jmpax.Config.In_order
  | [ "shuffle"; seed ] -> (
      match int_of_string_opt seed with
      | Some seed -> Ok (Jmpax.Config.Shuffled seed)
      | None -> Error "shuffle: bad seed")
  | [ "window"; seed; k ] -> (
      match (int_of_string_opt seed, int_of_string_opt k) with
      | Some seed, Some k when k >= 1 -> Ok (Jmpax.Config.Bounded (seed, k))
      | _ -> Error "window: bad seed or width")
  | _ -> Error (Printf.sprintf "unknown channel model %S" s)

let sched_of_seed = function
  | None -> Tml.Sched.round_robin ()
  | Some seed -> Tml.Sched.random ~seed

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline ("jmpax: " ^ msg);
      exit 2

let parse_spec = function
  | None -> Pastltl.Formula.True
  | Some s -> (
      match Pastltl.Fparser.parse s with
      | f -> f
      | exception Pastltl.Fparser.Error msg ->
          prerr_endline ("jmpax: bad specification: " ^ msg);
          exit 2)

(* Each [--engine] occurrence is a comma-separated list; the whole
   selection is the concatenation, deduplicated in order. *)
let parse_engines = function
  | [] -> Predict.Engine.default_kinds
  | names -> (
      match Predict.Engine.kinds_of_string (String.concat "," names) with
      | Ok kinds -> kinds
      | Error msg ->
          prerr_endline ("jmpax: " ^ msg);
          exit 2)

(* {1 check} *)

let check_cmd =
  let run example file spec seed fuel channel engine counterexamples replay metrics
      trace =
    let program = or_die (load_program ~example ~file) in
    let spec = parse_spec spec in
    let channel = or_die (parse_channel channel) in
    let config =
      { Jmpax.Config.sched = sched_of_seed seed;
        fuel;
        channel;
        engines = parse_engines engine;
        metrics;
        trace }
    in
    (* The exit code leaves the telemetry scope first, so the metric dump
       and trace flush happen even on a violation. *)
    let code =
      Jmpax.Pipeline.with_telemetry config (fun () ->
          let output = Jmpax.Pipeline.check ~config ~spec program in
          Format.printf "%a@." Jmpax.Pipeline.pp_output output;
          if (counterexamples || replay) && Jmpax.Pipeline.predicted_violation output
          then begin
            let report =
              Predict.Counterexample.check ~spec output.Jmpax.Pipeline.computation
            in
            Format.printf "@.%a@." Predict.Counterexample.pp_report report;
            List.iter
              (fun ce ->
                Format.printf "%a@."
                  (Predict.Counterexample.pp_counterexample
                     ~vars:output.Jmpax.Pipeline.relevant_vars)
                  ce;
                if replay then
                  match Predict.Replay.replay_counterexample ~spec ~program ce with
                  | Ok o ->
                      Format.printf "reproducing schedule: %a@." Tml.Sched.pp_script
                        o.Predict.Replay.script
                  | Error f ->
                      Format.printf "replay failed: %a@." Predict.Replay.pp_failure f)
              report.Predict.Counterexample.violating
          end;
          if
            Jmpax.Pipeline.predicted_violation output
            || output.Jmpax.Pipeline.engines_violated
          then 1
          else 0)
    in
    if code <> 0 then exit code
  in
  let counterexamples =
    Arg.(value & flag & info [ "counterexamples" ] ~doc:"Print every violating run.")
  in
  let replay =
    Arg.(value & flag
         & info [ "replay" ]
             ~doc:"Search a concrete schedule reproducing each violating run and print it.")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Run a program once and predict violations over all causally consistent runs.")
    Term.(const run $ example_arg $ file_arg $ spec_arg $ seed_arg $ fuel_arg
          $ channel_arg $ engine_arg $ counterexamples
          $ replay $ metrics_arg $ trace_arg)

(* {1 run} *)

let run_cmd =
  let run example file seed fuel output format spec engine metrics trace =
    let program = or_die (load_program ~example ~file) in
    (* The race/atomicity engines consume reads as well as writes, so a
       trace recorded for them must carry every event; the mangled
       [#read:] messages pass through check/stream/serve transparently. *)
    let needs_all_events =
      List.exists
        (fun k -> k <> Predict.Engine.Lattice)
        (parse_engines engine)
    in
    let relevance, relevant_vars =
      match spec with
      | None ->
          ( (if needs_all_events then Mvc.Relevance.all_events
             else Mvc.Relevance.all_writes),
            List.map fst program.Tml.Ast.shared )
      | Some _ ->
          let f = parse_spec spec in
          let vars = Pastltl.Formula.vars f in
          ( (if needs_all_events then Mvc.Relevance.all_events
             else Mvc.Relevance.writes_of_vars vars),
            vars )
    in
    let tconfig =
      Jmpax.Config.default () |> Jmpax.Config.with_metrics metrics
      |> Jmpax.Config.with_trace trace
    in
    Jmpax.Pipeline.with_telemetry tconfig @@ fun () ->
    let r = Tml.Vm.run_program ~fuel ~relevance ~sched:(sched_of_seed seed) program in
    Format.printf "outcome: %a (%d observable steps)@." Tml.Vm.pp_outcome
      r.Tml.Vm.outcome r.Tml.Vm.steps;
    Format.printf "final state:";
    List.iter (fun (x, v) -> Format.printf " %s=%d" x v) r.Tml.Vm.final;
    (match output with
    | None ->
        Format.printf "@.messages:@.";
        List.iter (fun m -> Format.printf "  %a@." Trace.Message.pp m) r.Tml.Vm.messages
    | Some path ->
        let header =
          { Jmpax.Wire.nthreads = List.length program.Tml.Ast.threads;
            init =
              List.filter
                (fun (x, _) -> List.mem x relevant_vars)
                program.Tml.Ast.shared }
        in
        (match Jmpax.Wire.write_file ~format path header r.Tml.Vm.messages with
        | Ok () -> ()
        | Error
            (( Jmpax.Wire.Error.Bad_thread_count _
             | Jmpax.Wire.Error.Frame_too_large _ ) as e) ->
            Format.eprintf
              "error: %s; wire v3 cannot carry this trace, record it with \
               --format v1@."
              (Jmpax.Wire.Error.to_string e);
            exit 3
        | Error e ->
            Format.eprintf "error: %s@." (Jmpax.Wire.Error.to_string e);
            exit 3);
        Format.printf "@.%d messages written to %s@." (List.length r.Tml.Vm.messages)
          path)
  in
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the emitted messages as a wire trace instead of printing them.")
  in
  let format =
    Arg.(value
         & opt
             (enum
                [ ("v1", Jmpax.Wire.V1); ("v3", Jmpax.Wire.Binary_v3) ])
             Jmpax.Wire.Binary_v3
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Wire format for $(b,--output): $(b,v3) (framed binary, \
                   delta-encoded clocks, default; at most 4096 threads) or \
                   $(b,v1) (line-oriented text, any width, for external \
                   tools).  $(b,stream) and $(b,serve) consume v3 only.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute an instrumented program once and dump its messages.")
    Term.(const run $ example_arg $ file_arg $ seed_arg $ fuel_arg $ output $ format
          $ spec_arg $ engine_arg $ metrics_arg $ trace_arg)

(* {1 stream} *)

(* Distinct exit codes so supervisors can tell failure classes apart
   without scraping stderr (also listed in the stream man page). *)
let exit_violation = 1
let exit_decode = 3
let exit_backpressure = 4
let exit_transport_lost = 5
let exit_checkpoint = 6
let exit_budget = 8

let die code msg =
  prerr_endline ("jmpax: " ^ msg);
  exit code

let code_of_stream_error = function
  | Jmpax.Wire.Error.Backpressure _ -> exit_backpressure
  | Jmpax.Wire.Error.Checkpoint _ -> exit_checkpoint
  | _ -> exit_decode

(* Pull [n] bytes off the transport and drop them: positions a
   non-seekable source (FIFO, stdin, plain socket) at a checkpoint's
   resume offset. *)
let discard_prefix t n =
  let buf = Bytes.create 8192 in
  let rec go remaining =
    if remaining = 0 then Ok ()
    else
      match Jmpax.Transport.read t buf 0 (min remaining (Bytes.length buf)) with
      | 0 -> Error "transport ended before the checkpointed resume offset"
      | k -> go (remaining - k)
  in
  go n

(* EINTR-safe [connect]: signal delivery during dial must not kill a
   long-running monitor. *)
let rec connect_retry sock addr =
  try Unix.connect sock addr
  with Unix.Unix_error (Unix.EINTR, _, _) -> connect_retry sock addr

(* Hand a supervised [Transport.t] to [f]: a regular file, a FIFO (open
   blocks until a writer appears, as FIFOs do), stdin for [-], or a
   connection to a listening Unix socket for [unix:PATH] — reconnecting
   with backoff when a [reconnect] policy is given.  [skip] is the
   checkpointed resume offset the transport must be advanced past. *)
let with_transport ?reconnect ?(skip = 0) target f =
  let prefixed prefix s =
    String.length s > String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  let skipped t =
    match discard_prefix t skip with
    | Ok () -> f t
    | Error msg -> Error (Jmpax.Wire.Error.Checkpoint msg)
  in
  match target with
  | "-" -> skipped (Jmpax.Transport.of_channel stdin)
  | t when prefixed "listen-unix:" t -> (
      (* Listener role: bind, accept exactly one writer, and close the
         listening socket immediately so a second writer is refused
         instead of queueing forever against a leaked listener. *)
      let path = String.sub t 12 (String.length t - 12) in
      match Jmpax.Transport.listen_once path with
      | Error msg -> die exit_decode msg
      | Ok transport ->
          Fun.protect
            ~finally:(fun () -> Jmpax.Transport.close transport)
            (fun () -> skipped transport))
  | t when prefixed "unix:" t ->
      let path = String.sub t 5 (String.length t - 5) in
      let dial () =
        let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match connect_retry sock (Unix.ADDR_UNIX path) with
        | () ->
            Ok
              ( (fun buf pos len -> Unix.read sock buf pos len),
                fun () -> try Unix.close sock with Unix.Unix_error _ -> () )
        | exception Unix.Unix_error (e, fn, _) ->
            (try Unix.close sock with Unix.Unix_error _ -> ());
            Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
      in
      let transport =
        match reconnect with
        | Some backoff ->
            (* The reconnecting transport replays and discards the
               prefix itself on every dial. *)
            Jmpax.Transport.reconnecting ~backoff ~skip ~dial ()
        | None -> (
            match dial () with
            | Ok (read, close) -> Jmpax.Transport.of_read ~close read
            | Error msg -> die exit_decode msg)
      in
      Fun.protect
        ~finally:(fun () -> Jmpax.Transport.close transport)
        (fun () ->
          if reconnect = None then skipped transport else f transport)
  | path ->
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> skipped (Jmpax.Transport.of_channel ic))

(* {2 Resource budgets (stream and serve)} *)

let max_frontier_cuts_arg =
  Arg.(value & opt (some int) None
       & info [ "max-frontier-cuts" ] ~docv:"N"
           ~doc:"Resource budget on the lattice frontier width: once more \
                 than $(docv) cuts are live, the $(b,--on-overload) policy \
                 applies (the lattice sweep is worst-case exponential in \
                 cuts per level).")

let on_overload_arg =
  Arg.(value
       & opt (enum [ ("degrade", Jmpax.Budget.Degrade);
                     ("evict", Jmpax.Budget.Evict);
                     ("fail", Jmpax.Budget.Fail) ])
           Jmpax.Budget.Fail
       & info [ "on-overload" ] ~docv:"POLICY"
           ~doc:"What a crossed budget does: $(b,degrade) swaps the lattice \
                 engine for the linear-time race/atomicity engines at a \
                 clean causal boundary and keeps going (the verdict and any \
                 checkpoint carry an explicit $(b,degraded\\(...\\)) marker); \
                 $(b,evict) checkpoints the state, then stops (drops only \
                 the offending session under $(b,serve)); $(b,fail) \
                 (default) stops with exit code 8.")

let make_budget ~max_frontier_cuts =
  match Jmpax.Budget.limits ?max_frontier_cuts () with
  | limits -> limits
  | exception Invalid_argument msg -> die 2 msg

(* [--max-buffered], stream's and serve's one bound on held messages. *)
let check_max_buffered = function
  | Some k when k < 0 -> die 2 "--max-buffered must be at least 0"
  | _ -> ()

let stream_cmd =
  let run target spec engine max_buffered recovery quarantine_file
      checkpoint checkpoint_every resume reconnect backoff_min backoff_max
      max_retries deadline max_frontier_cuts on_overload metrics span_trace log_level
      log_format =
    Telemetry.Log.set_level log_level;
    Telemetry.Log.set_format log_format;
    let spec = parse_spec spec in
    let engines = parse_engines engine in
    let budget = make_budget ~max_frontier_cuts in
    check_max_buffered max_buffered;
    let resume =
      match resume with
      | None -> None
      | Some path -> (
          match Jmpax.Checkpoint.read path with
          | Error (Jmpax.Checkpoint.Io msg) ->
              (* The system's text already names the file. *)
              die exit_checkpoint msg
          | Error e ->
              die exit_checkpoint
                (Printf.sprintf "%s: %s" path (Jmpax.Checkpoint.error_to_string e))
          | Ok ck -> (
              match Jmpax.Checkpoint.validate ~spec ck with
              | Error e ->
                  die exit_checkpoint
                    (Printf.sprintf "%s: %s" path
                       (Jmpax.Checkpoint.error_to_string e))
              | Ok () -> Some ck))
    in
    let checkpoint =
      match checkpoint with
      | None -> None
      | Some path ->
          if checkpoint_every < 1 then
            die 2 "--checkpoint-every must be at least 1"
          else Some (path, checkpoint_every)
    in
    let reconnect =
      if not reconnect then None
      else if backoff_min <= 0.0 || backoff_max < backoff_min then
        die 2 "--backoff-min/--backoff-max must satisfy 0 < min <= max"
      else
        Some
          { Jmpax.Transport.bo_min = backoff_min;
            bo_max = backoff_max;
            bo_retries = max_retries;
            bo_deadline = deadline }
    in
    let skip =
      match resume with Some ck -> ck.Jmpax.Checkpoint.ck_position | None -> 0
    in
    let tconfig =
      Jmpax.Config.default ()
      |> Jmpax.Config.with_metrics metrics
      |> Jmpax.Config.with_trace span_trace
    in
    let code =
      (* [Budget.Exceeded] is caught {e outside} [with_telemetry]: the
         exception propagates through its [Fun.protect], so the final
         metrics dump and trace flush still happen — a plain [exit]
         inside the closure would skip them. *)
      try
      Jmpax.Pipeline.with_telemetry tconfig (fun () ->
          let lost = ref None in
          let result =
            try
              with_transport ?reconnect ~skip target (fun transport ->
                  let with_quarantine k =
                    match quarantine_file with
                    | None -> k None
                    | Some path ->
                        let oc = open_out_bin path in
                        Fun.protect
                          ~finally:(fun () -> close_out_noerr oc)
                          (fun () -> k (Some (output_string oc)))
                  in
                  let r =
                    with_quarantine (fun quarantine ->
                        Jmpax.Stream.run ?max_buffered ~recovery ?quarantine
                          ?checkpoint ?resume ~engines ~budget ~on_overload ~spec
                          ~read:(Jmpax.Transport.read transport) ())
                  in
                  lost := Jmpax.Transport.lost transport;
                  r)
            with
            | Unix.Unix_error (e, fn, arg) ->
                Error
                  (Jmpax.Wire.Error.Io
                     (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e)))
            | Sys_error msg -> Error (Jmpax.Wire.Error.Io msg)
          in
          match (!lost, result) with
          | Some reason, _ ->
              (* Transport loss outranks whatever the decoder made of the
                 cut-off stream: the actionable fact is that the retry
                 budget ran out. *)
              prerr_endline ("jmpax: transport lost: " ^ reason);
              (match checkpoint with
              | Some (path, _) ->
                  prerr_endline
                    (Printf.sprintf
                       "jmpax: resume later with --resume %s" path)
              | None -> ());
              exit_transport_lost
          | None, Error e ->
              prerr_endline ("jmpax: " ^ Jmpax.Wire.Error.to_string e);
              (match e with
              | Jmpax.Wire.Error.Backpressure _ ->
                  prerr_endline
                    "jmpax: hint: raise --max-buffered, or fix the channel's reordering"
              | _ -> ());
              code_of_stream_error e
          | None, Ok outcome ->
              print_string (Jmpax.Report.stream_summary outcome);
              if outcome.Jmpax.Stream.s_violated then exit_violation else 0)
      with Jmpax.Budget.Exceeded breach ->
        prerr_endline ("jmpax: " ^ Jmpax.Budget.breach_message breach);
        (match (on_overload, checkpoint) with
        | Jmpax.Budget.Evict, Some (path, _) ->
            prerr_endline
              (Printf.sprintf
                 "jmpax: state checkpointed; resume later with --resume %s" path)
        | _ ->
            prerr_endline
              "jmpax: hint: raise the budget, or use --on-overload degrade to \
               continue on the linear-time engines");
        exit_budget
    in
    if code <> 0 then exit code
  in
  let target =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"TRACE"
             ~doc:"Framed wire stream to consume: a file or FIFO path, $(b,-) \
                   for stdin, $(b,unix:PATH) to connect to a listening Unix \
                   socket, or $(b,listen-unix:PATH) to bind one and accept a \
                   single writer (the listener is closed as soon as the writer \
                   connects).")
  in
  let max_buffered =
    Arg.(value & opt (some int) None
         & info [ "max-buffered" ] ~docv:"N"
             ~doc:"Backpressure bound: abort once more than $(docv) messages \
                   are held waiting for an earlier one, in the lattice's \
                   store or the race/atomicity engines' causal-delivery \
                   buffer (also surfaced as the $(b,stream.max_buffered) \
                   telemetry gauge).")
  in
  let recovery =
    Arg.(value
         & opt (enum [ ("fail", Jmpax.Config.Fail); ("skip", Jmpax.Config.Skip);
                       ("quarantine", Jmpax.Config.Quarantine) ])
             Jmpax.Config.Fail
         & info [ "on-decode-error" ] ~docv:"POLICY"
             ~doc:"What to do with a malformed frame: $(b,fail) (default), \
                   $(b,skip) to the next frame, or $(b,quarantine) the raw \
                   bytes and continue.")
  in
  let quarantine_file =
    Arg.(value & opt (some string) None
         & info [ "quarantine-file" ] ~docv:"FILE"
             ~doc:"Where $(b,--on-decode-error quarantine) preserves the \
                   skipped bytes.")
  in
  let checkpoint =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"FILE"
             ~doc:"Crash safety: atomically write a resumable checkpoint of \
                   the observer's state to $(docv) as the analysis advances \
                   (see $(b,--checkpoint-every)).")
  in
  let checkpoint_every =
    Arg.(value & opt int 1
         & info [ "checkpoint-every" ] ~docv:"N"
             ~doc:"Checkpoint each time the analysis has advanced by $(docv) \
                   progress units — lattice levels, or consumed messages for \
                   a non-lattice $(b,--engine) set (default 1).")
  in
  let resume =
    Arg.(value & opt (some string) None
         & info [ "resume" ] ~docv:"FILE"
             ~doc:"Resume an interrupted run from the checkpoint in $(docv); \
                   verdicts, violations and statistics continue exactly as if \
                   the run had never stopped.  The checkpoint must have been \
                   taken under the same $(b,--spec).")
  in
  let reconnect =
    Arg.(value & flag
         & info [ "reconnect" ]
             ~doc:"For $(b,unix:PATH) targets: treat end-of-file and \
                   connection resets as transient and redial with exponential \
                   backoff and jitter, replaying past the bytes already \
                   consumed.")
  in
  let backoff_min =
    Arg.(value & opt float 0.05
         & info [ "backoff-min" ] ~docv:"SECONDS"
             ~doc:"First reconnect delay (default 0.05).")
  in
  let backoff_max =
    Arg.(value & opt float 5.0
         & info [ "backoff-max" ] ~docv:"SECONDS"
             ~doc:"Cap on a single reconnect delay (default 5).")
  in
  let max_retries =
    Arg.(value & opt int 10
         & info [ "max-retries" ] ~docv:"N"
             ~doc:"Total redial budget before the transport is declared lost \
                   (default 10).")
  in
  let deadline =
    Arg.(value & opt float 30.0
         & info [ "reconnect-deadline" ] ~docv:"SECONDS"
             ~doc:"Total backoff-sleep budget before the transport is \
                   declared lost (default 30; 0 = unlimited).")
  in
  let exits =
    [ Cmd.Exit.info 0 ~doc:"the stream completed and no violation was predicted.";
      Cmd.Exit.info exit_violation ~doc:"a violation was predicted.";
      Cmd.Exit.info 2 ~doc:"command line or input errors.";
      Cmd.Exit.info exit_decode
        ~doc:"the stream could not be decoded (under $(b,--on-decode-error \
              fail)), or the transport failed.";
      Cmd.Exit.info exit_backpressure
        ~doc:"the $(b,--max-buffered) out-of-order bound was exceeded.";
      Cmd.Exit.info exit_transport_lost
        ~doc:"the connection was lost and the $(b,--reconnect) retry budget \
              exhausted.";
      Cmd.Exit.info exit_checkpoint
        ~doc:"a checkpoint could not be written, read or validated.";
      Cmd.Exit.info exit_budget
        ~doc:"the resource budget ($(b,--max-frontier-cuts)) was exceeded \
              under $(b,--on-overload fail) or $(b,evict)." ]
  in
  Cmd.v
    (Cmd.info "stream" ~exits
       ~doc:"Run the online observer over a live framed wire stream (file, \
             FIFO, stdin or Unix socket); verdicts are byte-identical to \
             $(b,jmpax check).  With $(b,--checkpoint) and $(b,--resume) a \
             killed observer continues where it stopped; with \
             $(b,--reconnect) it survives connection loss.")
    Term.(const run $ target $ spec_arg $ engine_arg $ max_buffered
          $ recovery $ quarantine_file $ checkpoint $ checkpoint_every $ resume
          $ reconnect $ backoff_min $ backoff_max $ max_retries $ deadline
          $ max_frontier_cuts_arg $ on_overload_arg $ metrics_arg $ trace_arg
          $ log_level_arg $ log_format_arg)

(* {1 serve} *)

let serve_cmd =
  let run address control spec max_sessions idle_timeout max_buffered engine
      recovery checkpoint_dir checkpoint_every read_budget metrics
      span_trace log_level log_format live_metrics health_max_lag
      health_max_buffered max_frontier_cuts on_overload memory_budget =
    Telemetry.Log.set_level log_level;
    Telemetry.Log.set_format log_format;
    (* A daemon whose [metrics] control request always answers "empty"
       is useless, so the live registry defaults on; [--live-metrics
       false] restores the zero-overhead single-branch-off path. *)
    if live_metrics && metrics = None then Telemetry.Metrics.enable ();
    let spec = parse_spec spec in
    let address =
      let prefixed prefix s =
        String.length s > String.length prefix
        && String.sub s 0 (String.length prefix) = prefix
      in
      if prefixed "unix:" address then
        Serve.Loop.Unix_path (String.sub address 5 (String.length address - 5))
      else if prefixed "tcp:" address then
        match int_of_string_opt (String.sub address 4 (String.length address - 4)) with
        | Some port when port >= 0 && port <= 65535 -> Serve.Loop.Tcp port
        | _ -> die 2 (Printf.sprintf "bad tcp port in %S" address)
      else die 2 (Printf.sprintf "listen address must be unix:PATH or tcp:PORT, got %S" address)
    in
    let control =
      match (control, address) with
      | Some "none", _ -> None
      | Some path, _ -> Some path
      | None, Serve.Loop.Unix_path p -> Some (p ^ ".ctl")
      | None, Serve.Loop.Tcp _ -> None
    in
    if max_sessions < 1 then die 2 "--max-sessions must be at least 1";
    if checkpoint_every < 1 then die 2 "--checkpoint-every must be at least 1";
    if read_budget < 1 then die 2 "--read-budget must be at least 1";
    (match memory_budget with
    | Some b when b < 1 -> die 2 "--memory-budget must be at least 1"
    | _ -> ());
    check_max_buffered max_buffered;
    (* --memory-budget is the daemon-global admission-control high-water
       (Loop.config); the per-session limit goes into every session's
       budget. *)
    let budget = make_budget ~max_frontier_cuts in
    let session =
      { Serve.Session.spec;
        spec_fp = Jmpax.Checkpoint.fingerprint spec;
        engines = parse_engines engine;
        max_buffered;
        jobs = 1;
        recovery;
        checkpoint_dir;
        checkpoint_every;
        budget;
        on_overload;
        now = Unix.gettimeofday }
    in
    let config =
      { Serve.Loop.address;
        control;
        session;
        max_sessions;
        idle_timeout;
        read_budget;
        health_max_lag;
        health_max_buffered;
        memory_budget }
    in
    let tconfig =
      Jmpax.Config.default ()
      |> Jmpax.Config.with_metrics metrics
      |> Jmpax.Config.with_trace span_trace
    in
    let code =
      Jmpax.Pipeline.with_telemetry tconfig (fun () ->
          match Serve.Loop.create config with
          | Error msg -> die 2 msg
          | Ok t ->
              let drain _ = Serve.Loop.request_drain t in
              (try Sys.set_signal Sys.sigterm (Sys.Signal_handle drain)
               with Invalid_argument _ -> ());
              (try Sys.set_signal Sys.sigint (Sys.Signal_handle drain)
               with Invalid_argument _ -> ());
              prerr_endline
                (Printf.sprintf "jmpax serve: listening on %s%s"
                   (Serve.Loop.address_string t)
                   (match control with
                   | Some p -> Printf.sprintf " (control %s)" p
                   | None -> ""));
              Serve.Loop.run t)
    in
    if code <> 0 then exit code
  in
  let address =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"ADDRESS"
             ~doc:"Listen address: $(b,unix:PATH) or $(b,tcp:PORT) \
                   (127.0.0.1; port $(b,0) picks a free port and prints it).")
  in
  let control =
    Arg.(value & opt (some string) None
         & info [ "control" ] ~docv:"PATH"
             ~doc:"Unix-domain control socket answering $(b,jmpax stats \
                   unix:PATH) queries.  Defaults to $(i,PATH).ctl for a \
                   $(b,unix:) listen address; $(b,none) disables it.")
  in
  let max_sessions =
    Arg.(value & opt int 1024
         & info [ "max-sessions" ] ~docv:"N"
             ~doc:"Connected-session cap; writers past it are politely \
                   rejected with $(b,reject server full) (default 1024).")
  in
  let idle_timeout =
    Arg.(value & opt float 300.0
         & info [ "idle-timeout" ] ~docv:"SECONDS"
             ~doc:"Evict sessions idle longer than this, checkpointing them \
                   first when a checkpoint directory is configured (default \
                   300; 0 disables eviction).")
  in
  let max_buffered =
    Arg.(value & opt (some int) None
         & info [ "max-buffered" ] ~docv:"N"
             ~doc:"Per-session backpressure bound: a session holding more \
                   than $(docv) messages waiting for an earlier one (in the \
                   lattice's store or the causal-delivery buffer) fails with \
                   exit class 4 without disturbing its siblings.")
  in
  let recovery =
    Arg.(value
         & opt (enum [ ("fail", Jmpax.Config.Fail); ("skip", Jmpax.Config.Skip);
                       ("quarantine", Jmpax.Config.Quarantine) ])
             Jmpax.Config.Fail
         & info [ "on-decode-error" ] ~docv:"POLICY"
             ~doc:"Per-session malformed-frame policy: $(b,fail) (default), \
                   $(b,skip), or $(b,quarantine) (counted like skip).")
  in
  let checkpoint_dir =
    Arg.(value & opt (some string) None
         & info [ "checkpoint-dir" ] ~docv:"DIR"
             ~doc:"Crash safety: keep one $(i,ID).ckpt per session in \
                   $(docv); sessions resume across daemon restarts and the \
                   SIGTERM drain checkpoints every live session there.")
  in
  let checkpoint_every =
    Arg.(value & opt int 1
         & info [ "checkpoint-every" ] ~docv:"N"
             ~doc:"Lattice levels between periodic per-session checkpoints \
                   (default 1).")
  in
  let read_budget =
    Arg.(value & opt int Serve.Loop.default_read_budget
         & info [ "read-budget" ] ~docv:"BYTES"
             ~doc:"Fair-scheduling quantum: at most $(docv) bytes are read \
                   from one session per tick before its siblings are serviced \
                   (default 65536).")
  in
  let live_metrics =
    Arg.(value & opt bool true
         & info [ "live-metrics" ] ~docv:"BOOL"
             ~doc:"Keep the telemetry registry live so the control socket's \
                   $(b,metrics) request answers with a populated Prometheus \
                   exposition (default true; the measured overhead gate is \
                   E21).  $(b,--live-metrics false) restores the \
                   single-branch-when-off fast path.")
  in
  let health_max_lag =
    Arg.(value & opt int 0
         & info [ "health-max-lag" ] ~docv:"BYTES"
             ~doc:"The control socket's $(b,health) request reports \
                   $(b,degraded) once any session holds more than $(docv) \
                   undecoded bytes (default 0 = no lag check).")
  in
  let health_max_buffered =
    Arg.(value & opt int 0
         & info [ "health-max-buffered" ] ~docv:"N"
             ~doc:"The $(b,health) request reports $(b,degraded) once any \
                   session buffers more than $(docv) out-of-order messages \
                   (default 0 = no buffering check).")
  in
  let memory_budget_arg =
    Arg.(value & opt (some int) None
         & info [ "memory-budget" ] ~docv:"BYTES"
             ~doc:"Global admission-control high-water on the summed \
                   per-session analysis state: while crossed, new writers are \
                   rejected with $(b,reject server busy) and $(b,health) \
                   reports $(b,degraded) naming the hungriest session.  \
                   Resident sessions are governed by the per-session budget \
                   ($(b,--max-frontier-cuts)) with $(b,--on-overload), and by \
                   $(b,--max-buffered); a session dropped by the budget gets \
                   exit class 8, one dropped by $(b,--max-buffered) exit class \
                   4, without disturbing its siblings.")
  in
  let exits =
    [ Cmd.Exit.info 0
        ~doc:"drained cleanly: every live session was checkpointed (or no \
              checkpoint directory was configured).";
      Cmd.Exit.info 2 ~doc:"command line errors, or the sockets could not be bound.";
      Cmd.Exit.info exit_checkpoint
        ~doc:"at least one per-session checkpoint failed during the SIGTERM \
              drain; the other sessions were still drained.  Per-session \
              verdicts never affect the daemon's exit code (a session dropped \
              by a resource budget reports exit class 8 to its writer only)." ]
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:"Run the multi-tenant observer daemon: one process monitors many \
             concurrent writer sessions over a Unix or TCP socket, each with \
             its own incremental decoder, analyzer and optional checkpoint \
             file.  Scheduling is round-robin with a per-tick read budget, so \
             no writer can starve the others; SIGTERM drains gracefully.")
    Term.(const run $ address $ control $ spec_arg $ max_sessions $ idle_timeout
          $ max_buffered $ engine_arg $ recovery $ checkpoint_dir
          $ checkpoint_every $ read_budget $ metrics_arg $ trace_arg
          $ log_level_arg $ log_format_arg $ live_metrics $ health_max_lag
          $ health_max_buffered $ max_frontier_cuts_arg $ on_overload_arg
          $ memory_budget_arg)

(* {1 lattice} *)

let lattice_cmd =
  let run example file spec seed fuel dot =
    let program = or_die (load_program ~example ~file) in
    let spec = parse_spec spec in
    let config =
      { (Jmpax.Config.default ()) with Jmpax.Config.sched = sched_of_seed seed; fuel }
    in
    let output = Jmpax.Pipeline.check ~config ~spec program in
    if dot then begin
      let lattice = Observer.Lattice.build output.Jmpax.Pipeline.computation in
      let violating =
        List.map
          (fun v -> Array.to_list v.Predict.Analyzer.cut)
          output.Jmpax.Pipeline.predictive.Predict.Analyzer.violations
      in
      let highlight (n : Observer.Lattice.node) =
        List.mem (Array.to_list n.Observer.Lattice.cut) violating
      in
      print_string (Observer.Lattice.to_dot ~highlight lattice)
    end
    else begin
      print_string (Jmpax.Report.lattice_figure output.Jmpax.Pipeline.computation);
      print_newline ()
    end
  in
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of text; violating cuts are highlighted.")
  in
  Cmd.v
    (Cmd.info "lattice"
       ~doc:"Print the computation lattice of one monitored run (cf. the paper's Figs. 5 and 6).")
    Term.(const run $ example_arg $ file_arg $ spec_arg $ seed_arg $ fuel_arg $ dot)

(* {1 race, deadlock, atomicity}

   One offline analysis of one monitored run: print its report, exit 1
   when it finds a violation. *)

let analysis_cmd name ~doc analyze pp clean =
  let run example file seed fuel metrics trace =
    let program = or_die (load_program ~example ~file) in
    let tconfig =
      Jmpax.Config.default () |> Jmpax.Config.with_metrics metrics
      |> Jmpax.Config.with_trace trace
    in
    (* The exit code leaves the telemetry scope first, so --metrics and
       --trace still dump when a violation exits non-zero. *)
    let code =
      Jmpax.Pipeline.with_telemetry tconfig (fun () ->
          let r = Tml.Vm.run_program ~fuel ~sched:(sched_of_seed seed) program in
          match r.Tml.Vm.exec with
          | None -> or_die (Error "no execution recorded")
          | Some exec ->
              let report = analyze exec in
              Format.printf "%a@." pp report;
              if clean report then 0 else 1)
    in
    if code <> 0 then exit code
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run $ example_arg $ file_arg $ seed_arg $ fuel_arg
          $ metrics_arg $ trace_arg)

let race_cmd =
  analysis_cmd "race" ~doc:"Predict data races from one run (sync-only happens-before)."
    Predict.Race.detect Predict.Race.pp_report Predict.Race.race_free

let deadlock_cmd =
  analysis_cmd "deadlock" ~doc:"Predict deadlocks from one run via the lock-order graph."
    Predict.Lockgraph.analyze Predict.Lockgraph.pp_report Predict.Lockgraph.deadlock_free

let atomicity_cmd =
  analysis_cmd "atomicity" ~doc:"Predict sync-block atomicity violations from one run."
    Predict.Atomicity.analyze Predict.Atomicity.pp_report Predict.Atomicity.serializable

(* {1 compare} *)

let compare_cmd =
  let run example file spec runs =
    let program = or_die (load_program ~example ~file) in
    let spec = parse_spec spec in
    print_string
      (Jmpax.Report.detection_table ~spec ~program ~seeds:(List.init runs (fun i -> i)))
  in
  let runs =
    Arg.(value & opt int 50 & info [ "runs" ] ~docv:"N" ~doc:"Number of random schedules.")
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Detection-rate comparison: observed-run monitoring (JPaX) vs prediction (JMPaX).")
    Term.(const run $ example_arg $ file_arg $ spec_arg $ runs)

(* {1 fsm} *)

let fsm_cmd =
  let run spec minimized =
    let spec =
      match spec with
      | Some _ -> parse_spec spec
      | None -> or_die (Error "fsm requires --spec")
    in
    let fsm = Pastltl.Fsm.synthesize spec in
    let fsm = if minimized then Pastltl.Fsm.minimize fsm else fsm in
    Format.printf "%a@." Pastltl.Fsm.pp fsm
  in
  let minimized =
    Arg.(value & flag & info [ "minimize" ] ~doc:"Print the minimized automaton.")
  in
  Cmd.v
    (Cmd.info "fsm"
       ~doc:"Synthesize the finite state machine of a past-time LTL specification.")
    Term.(const run $ spec_arg $ minimized)

(* {1 stats} *)

(* A control-socket hang is not a connection refusal: supervisors retry
   a refusal (the daemon is restarting) but page on a timeout (the
   daemon is wedged), so the two need distinct exit codes. *)
let exit_control_timeout = 7

type control_error =
  | Control_refused of string  (** nothing listening (or socket gone) *)
  | Control_timeout of string  (** connected, but the reply stalled *)
  | Control_io of string  (** anything else *)

let control_error_message = function
  | Control_refused m | Control_timeout m | Control_io m -> m

(* Query a running daemon's control socket: one request line, read the
   reply to EOF, bounded by a wall-clock [timeout] (the daemon answers
   from its select loop, so a stalled reply means a wedged daemon, not
   a slow one). *)
let query_control ?(timeout = 5.0) path request =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      match connect_retry sock (Unix.ADDR_UNIX path) with
      | exception Unix.Unix_error (e, fn, _) ->
          let msg = Printf.sprintf "%s: %s: %s" path fn (Unix.error_message e) in
          (match e with
          | Unix.ECONNREFUSED | Unix.ENOENT -> Error (Control_refused msg)
          | _ -> Error (Control_io msg))
      | () ->
          let msg = Bytes.of_string (request ^ "\n") in
          let _ = Unix.write sock msg 0 (Bytes.length msg) in
          (try Unix.shutdown sock Unix.SHUTDOWN_SEND
           with Unix.Unix_error _ -> ());
          let deadline = Unix.gettimeofday () +. timeout in
          let buf = Bytes.create 8192 in
          let out = Buffer.create 1024 in
          let rec drain () =
            let left = deadline -. Unix.gettimeofday () in
            if left <= 0.0 then
              Error
                (Control_timeout
                   (Printf.sprintf "%s: no reply within %gs" path timeout))
            else
              match Unix.select [ sock ] [] [] left with
              | [], _, _ ->
                  Error
                    (Control_timeout
                       (Printf.sprintf "%s: no reply within %gs" path timeout))
              | _ -> (
                  match Unix.read sock buf 0 (Bytes.length buf) with
                  | 0 -> Ok (Buffer.contents out)
                  | n ->
                      Buffer.add_subbytes out buf 0 n;
                      drain ()
                  | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
                  | exception Unix.Unix_error (e, fn, _) ->
                      Error
                        (Control_io
                           (Printf.sprintf "%s: %s: %s" path fn
                              (Unix.error_message e))))
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
          in
          drain ())

let die_control_error err =
  let code =
    match err with
    | Control_refused _ -> exit_transport_lost
    | Control_timeout _ -> exit_control_timeout
    | Control_io _ -> exit_decode
  in
  die code (control_error_message err)

let timeout_arg =
  let doc =
    "Give up on the control socket after $(docv) seconds without a \
     reply (a wedged daemon exits with code 7; a refused connection \
     with code 5)."
  in
  Arg.(value & opt float 5.0 & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let control_exits =
  [ Cmd.Exit.info exit_transport_lost
      ~doc:"the control socket refused the connection (daemon not \
            running, or the socket path is stale).";
    Cmd.Exit.info exit_control_timeout
      ~doc:"the daemon accepted the connection but did not reply \
            within $(b,--timeout) seconds." ]

let stats_cmd =
  let run trace query timeout =
    let prefixed prefix s =
      String.length s > String.length prefix
      && String.sub s 0 (String.length prefix) = prefix
    in
    if prefixed "unix:" trace then begin
      (* Live daemon rollup via its control socket. *)
      let path = String.sub trace 5 (String.length trace - 5) in
      match query_control ~timeout path query with
      | Error err -> die_control_error err
      | Ok reply -> print_string reply
    end
    else
      match Telemetry.Summary.of_file trace with
      | Error msg -> or_die (Error msg)
      | Ok s ->
          Format.printf "%a@." Telemetry.Summary.pp s;
          if not (Telemetry.Summary.well_formed s) then exit 1
  in
  let trace =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"TRACE"
             ~doc:"Span trace produced by $(b,--trace) on another subcommand, \
                   or $(b,unix:PATH) to query a running $(b,jmpax serve) \
                   daemon's control socket for its live per-tenant rollup.")
  in
  let query =
    Arg.(value & opt string "stats"
         & info [ "query" ] ~docv:"REQUEST"
             ~doc:"Control-socket request to send for $(b,unix:PATH) targets: \
                   $(b,stats) (default), $(b,metrics) for the Prometheus text \
                   exposition, $(b,health) for the ok/degraded/draining \
                   verdict, or $(b,ping).")
  in
  Cmd.v
    (Cmd.info "stats" ~exits:control_exits
       ~doc:"Replay a span trace into a per-stage summary table (count, total, \
             min/mean/max time), or query a live $(b,jmpax serve) control \
             socket; exits nonzero if the trace is not well nested.")
    Term.(const run $ trace $ query $ timeout_arg)

(* {1 top} *)

(* A [stats] reply split into the header's key/value lines and the
   per-session [session k=v ...] lines; trailing free-form metrics text
   is ignored. *)
let parse_stats reply =
  let header = Hashtbl.create 32 in
  let sessions = ref [] in
  let parse_kvs rest =
    List.filter_map
      (fun tok ->
        match String.index_opt tok '=' with
        | Some i ->
            Some
              ( String.sub tok 0 i,
                String.sub tok (i + 1) (String.length tok - i - 1) )
        | None -> None)
      (String.split_on_char ' ' rest)
  in
  String.split_on_char '\n' reply
  |> List.iter (fun line ->
         match String.index_opt line ' ' with
         | None -> ()
         | Some i ->
             let key = String.sub line 0 i in
             let rest = String.sub line (i + 1) (String.length line - i - 1) in
             if key = "session" then sessions := parse_kvs rest :: !sessions
             else if not (Hashtbl.mem header key) then
               Hashtbl.replace header key rest);
  (header, List.rev !sessions)

let top_cmd =
  let run target interval once timeout =
    let prefixed prefix s =
      String.length s > String.length prefix
      && String.sub s 0 (String.length prefix) = prefix
    in
    let path =
      if prefixed "unix:" target then
        String.sub target 5 (String.length target - 5)
      else die 2 "jmpax top expects a unix:PATH control-socket address"
    in
    if interval <= 0.0 then die 2 "--interval must be positive";
    (* Per-session event deltas between polls give a client-side EPS
       that works even against a daemon running with telemetry off. *)
    let prev_events : (string, int * float) Hashtbl.t = Hashtbl.create 32 in
    let field kvs k = List.assoc_opt k kvs in
    let fieldi kvs k =
      match field kvs k with
      | Some v -> ( match int_of_string_opt v with Some n -> n | None -> 0)
      | None -> 0
    in
    let render_screen reply now =
      let header, sessions = parse_stats reply in
      let h key = try Hashtbl.find header key with Not_found -> "-" in
      let buf = Buffer.create 2048 in
      let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
      if not once then Buffer.add_string buf "\027[H\027[2J";
      p "jmpax top — %s   uptime %ss   health %s%s\n" target (h "uptime_s")
        (h "health")
        (if h "draining" = "yes" then " (draining)" else "");
      p "sessions %s/%s (peak %s)   events %s   verdicts %s   violations %s\n"
        (h "serve.sessions_active") (h "serve.max_sessions")
        (h "serve.sessions_peak") (h "serve.events_total") (h "serve.verdicts")
        (h "serve.violations");
      p "rates eps 1s=%s 10s=%s 60s=%s   latency us p50=%s p90=%s p99=%s\n"
        (h "serve.events_rate_1s") (h "serve.events_rate_10s")
        (h "serve.events_rate_60s") (h "serve.latency_p50_us")
        (h "serve.latency_p90_us") (h "serve.latency_p99_us");
      p "\n%-12s %-12s %10s %8s %6s %8s %8s %8s %8s %8s %-8s %8s\n" "SID"
        "STATE" "EVENTS" "EPS" "LEVEL" "BUFFERED" "LAG" "CKPTS" "CUTS" "CAUSAL"
        "DEG" "VERDICT";
      List.iter
        (fun kvs ->
          let sid = Option.value ~default:"-" (field kvs "id") in
          let events = fieldi kvs "events" in
          let eps =
            match Hashtbl.find_opt prev_events sid with
            | Some (e0, t0) when now > t0 && events >= e0 ->
                Printf.sprintf "%.1f" (float_of_int (events - e0) /. (now -. t0))
            | _ -> "-"
          in
          Hashtbl.replace prev_events sid (events, now);
          (* [degraded] is absent from pre-budget daemons and reads "no"
             on a healthy session; anything else is the breach-reason
             token the session degraded under. *)
          let deg =
            match field kvs "degraded" with
            | None | Some "no" -> "-"
            | Some reason -> reason
          in
          p "%-12s %-12s %10d %8s %6d %8d %8d %8d %8d %8d %-8s %8s\n" sid
            (Option.value ~default:"-" (field kvs "state"))
            events eps (fieldi kvs "level") (fieldi kvs "buffered")
            (fieldi kvs "lag") (fieldi kvs "checkpoints")
            (fieldi kvs "cuts") (fieldi kvs "causal") deg
            (Option.value ~default:"-" (field kvs "verdict")))
        sessions;
      if sessions = [] then p "(no sessions)\n";
      print_string (Buffer.contents buf);
      flush stdout
    in
    let rec loop () =
      (match query_control ~timeout path "stats" with
      | Error err -> die_control_error err
      | Ok reply -> render_screen reply (Unix.gettimeofday ()));
      if not once then begin
        Unix.sleepf interval;
        loop ()
      end
    in
    loop ()
  in
  let target =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"ADDRESS"
             ~doc:"The daemon's control socket, as $(b,unix:PATH).")
  in
  let interval =
    Arg.(value & opt float 2.0
         & info [ "interval" ] ~docv:"SECONDS"
             ~doc:"Seconds between polls (default 2).")
  in
  let once =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"Render one snapshot without clearing the screen and exit \
                   (for scripts and tests).")
  in
  Cmd.v
    (Cmd.info "top" ~exits:control_exits
       ~doc:"Live terminal view of a running $(b,jmpax serve) daemon: polls \
             the control socket and redraws a per-session table (state, \
             events, client-side events/s, buffering, lag, verdicts) plus \
             the daemon-wide rates and latency quantiles.")
    Term.(const run $ target $ interval $ once $ timeout_arg)

(* {1 examples} *)

let examples_cmd =
  let run () =
    List.iter
      (fun (name, program) ->
        Printf.printf "%-24s %d threads, %d shared variables\n" name
          (List.length program.Tml.Ast.threads)
          (List.length program.Tml.Ast.shared))
      (Tml.Programs.all_named ())
  in
  Cmd.v
    (Cmd.info "examples" ~doc:"List the built-in example programs.")
    Term.(const run $ const ())

let () =
  (* A peer closing its end of a socket or pipe must surface as EPIPE /
     a short write, not kill the monitor outright. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let doc = "predictive runtime analysis of multithreaded programs (JMPaX reproduction)" in
  let info = Cmd.info "jmpax" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ check_cmd; run_cmd; lattice_cmd; race_cmd;
                                   deadlock_cmd; atomicity_cmd; compare_cmd; examples_cmd; fsm_cmd;
                                   stream_cmd; serve_cmd; stats_cmd; top_cmd ]))

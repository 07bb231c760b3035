(* Layer probes: each layer's public entry point run alone over one
   workload's own input, timed from the benchmark's code.

   The traced request path (see [Workloads]) says what share of a
   request each layer takes; a probe says what the layer costs per event
   on this workload's input, including on workloads whose request path
   bypasses the layer — there its share is 0 while its cost stays
   measurable.  Every probe is repeated and its fastest run kept: the
   minimum is the run least disturbed by the rest of the machine. *)

open Trace

type sample = {
  recording : Inputs.recording;
  spec : Pastltl.Formula.t;
  spec_vars : Types.var list;
  kinds : Predict.Engine.kind list;  (** the engines the request path runs *)
  header : Jmpax.Wire.header;
  messages : Message.t list;  (** the stream the workload carries, in delivery order *)
  bytes : string;  (** its wire-v3 encoding *)
  session : Serve.Session.config;
  dir : string;  (** scratch directory for checkpoint files *)
}

let reps = 3

(* Fastest of [n] runs: (result of the last run, seconds, words). *)
let fastest ?(n = reps) f =
  let best = ref infinity and words = ref 0.0 and result = ref None in
  for _ = 1 to n do
    let w0 = Span.allocated () in
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    let w = Span.allocated () -. w0 in
    if dt < !best then begin
      best := dt;
      words := w
    end;
    result := Some r
  done;
  (Option.get !result, !best, !words)

let per n x = if n = 0 then 0.0 else x /. float_of_int n

(* The Algorithm A emitter fed the recorded execution directly: the
   clock backend's cost without the VM around it. *)
let replay_emitter ~clock ~relevance exec =
  let em =
    Mvc.Emitter.create ~clock ~nthreads:(Exec.nthreads exec) ~init:(Exec.init exec)
      ~relevance ()
  in
  Array.iter
    (fun (e : Event.t) ->
      match e.kind with
      | Event.Internal -> Mvc.Emitter.on_internal em e.tid
      | Event.Read (x, v) -> Mvc.Emitter.on_read em e.tid x v
      | Event.Write (x, v) -> Mvc.Emitter.on_write em e.tid x v)
    (Exec.events exec);
  snd (Mvc.Emitter.finish em)

let chunk = 64 * 1024

(* Decode a whole wire document in transport-sized chunks. *)
let decode bytes =
  let reader = Jmpax.Wire.Reader.create () in
  let items = ref [] in
  let len = String.length bytes in
  let rec drain () =
    match Jmpax.Wire.Reader.next reader with
    | Jmpax.Wire.Reader.Item i ->
        items := i :: !items;
        drain ()
    | Jmpax.Wire.Reader.Skip { error; _ } ->
        failwith ("probe decode: " ^ Jmpax.Wire.Error.to_string error)
    | Jmpax.Wire.Reader.Await | Jmpax.Wire.Reader.Eof -> ()
  in
  let pos = ref 0 in
  while !pos < len do
    let n = min chunk (len - !pos) in
    Jmpax.Wire.Reader.feed reader (String.sub bytes !pos n);
    pos := !pos + n;
    drain ()
  done;
  Jmpax.Wire.Reader.close reader;
  drain ();
  (reader, List.rev !items)

(* A fresh engine bundle fed a whole message stream to its end. *)
let engine_run ~kinds ~spec ~header messages =
  let nthreads = header.Jmpax.Wire.nthreads in
  let b = Predict.Engines.create ~kinds ~nthreads ~init:header.Jmpax.Wire.init ~spec () in
  List.iter (Predict.Engines.feed b) messages;
  for t = 0 to nthreads - 1 do
    Predict.Engines.end_of_thread b t
  done;
  Predict.Engines.finish b;
  b

(* The checkpoint a stream front end would take at the end of this
   input: reader position and statistics plus every engine's state. *)
let checkpoint_of ~spec reader bundle =
  { Jmpax.Checkpoint.ck_header = Option.get (Jmpax.Wire.Reader.header reader);
    ck_spec_fp = Jmpax.Checkpoint.fingerprint spec;
    ck_position = Jmpax.Wire.Reader.consumed reader;
    ck_next_eid = Jmpax.Wire.Reader.next_eid reader;
    ck_reader_stats = Jmpax.Wire.Reader.stats reader;
    ck_reader_ended = Jmpax.Wire.Reader.ended_threads reader;
    ck_v3 = Jmpax.Wire.Reader.v3_state reader;
    ck_ends = 0;
    ck_quarantined = 0;
    ck_peak_buffered = 0;
    ck_engines = Predict.Engines.snapshots bundle;
    ck_online = Option.map Predict.Online.snapshot (Predict.Engines.online bundle);
    ck_degraded = Predict.Engines.degraded bundle }

let write_checkpoint path ck =
  match Jmpax.Checkpoint.write path ck with
  | Ok () -> ()
  | Error e -> failwith ("checkpoint write: " ^ Jmpax.Checkpoint.error_to_string e)

(* {1 Serve sessions over a socketpair}

   The daemon's per-connection state machine driven in-process: the
   bytes a writer would send go through [Session.on_bytes]; the
   session's replies (ack, verdict) are drained from the other end. *)

let drain_replies fd =
  let buf = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ()

let with_session config f =
  let ours, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock ours;
  Unix.set_nonblock theirs;
  let session = Serve.Session.create config theirs in
  Fun.protect
    ~finally:(fun () ->
      Serve.Session.close session;
      try Unix.close ours with Unix.Unix_error _ -> ())
    (fun () -> f session ours)

let hello config sid = Printf.sprintf "jmpax-serve 1 %s %s\n" sid config.Serve.Session.spec_fp

let handshake session config sid =
  match Serve.Session.on_bytes session (hello config sid) with
  | Serve.Session.Hello { id; rest; _ } -> Serve.Session.start_fresh session ~id ~rest
  | _ -> failwith "session probe: no hello"

(* {1 The probe set} *)

type result = (string * float) list

let run (s : sample) : result =
  let r = s.recording in
  let steps = r.Inputs.run.Tml.Vm.steps in
  let exec = r.Inputs.exec in
  let events = Exec.length exec in
  let msgs = List.length s.messages in
  let spec_relevance = Mvc.Relevance.writes_of_vars s.spec_vars in
  let replay ?relevance image () =
    Tml.Vm.run_image ~fuel:Inputs.fuel ?relevance
      ~sched:(Tml.Sched.of_script r.Inputs.script) image
  in
  (* TML: compile + instrument, the plain VM, and the instrumented VM
     under the same recorded schedule; the emitter is the difference. *)
  let _, compile_s, _ =
    fastest (fun () -> Tml.Instrument.instrument (Tml.Compile.compile r.Inputs.program))
  in
  (* The emitter's share of an instrumented run is small next to the
     VM's own run-to-run noise, so plain and instrumented runs alternate
     and the median of the paired differences is kept. *)
  let pairs =
    List.init 7 (fun _ ->
        let _, p, pw = fastest ~n:1 (replay r.Inputs.plain) in
        let _, i, iw =
          fastest ~n:1
            (replay ~relevance:(Inputs.relevance r.Inputs.relevant) r.Inputs.instrumented)
        in
        (p, i, pw, iw))
  in
  let plain_s = Stats.median (List.map (fun (p, _, _, _) -> p) pairs) in
  let instr_s = Stats.median (List.map (fun (_, i, _, _) -> i) pairs) in
  let emit_s = Stats.median (List.map (fun (p, i, _, _) -> i -. p) pairs) in
  let emit_w = Stats.median (List.map (fun (_, _, pw, iw) -> iw -. pw) pairs) in
  (* The instrumented run [Pipeline.check] itself performs: spec
     relevance, which differs from the recording's on all-events
     workloads. *)
  let check_instr_s =
    if r.Inputs.relevant = Some s.spec_vars then instr_s
    else
      let _, t, _ = fastest (replay ~relevance:spec_relevance r.Inputs.instrumented) in
      t
  in
  (* Algorithm A per registered clock backend, replaying the execution. *)
  let backends =
    List.map
      (fun name ->
        let clock = Clock.Registry.get name in
        let _, t, w =
          fastest (fun () ->
              replay_emitter ~clock ~relevance:(Inputs.relevance r.Inputs.relevant) exec)
        in
        (name, t, w))
      (Clock.Registry.names ())
  in
  let default_s, default_w =
    match List.find_opt (fun (n, _, _) -> n = Clock.Registry.default_name) backends with
    | Some (_, t, w) -> (t, w)
    | None -> (nan, nan)
  in
  let best_other =
    List.fold_left
      (fun acc (n, t, _) -> if n = Clock.Registry.default_name then acc else min acc t)
      infinity backends
  in
  (* The rest of [Pipeline.check]: offline analyses after the run. *)
  let _, check_s, _ =
    fastest ~n:2 (fun () ->
        let config =
          { (Jmpax.Config.default ()) with
            Jmpax.Config.sched = Tml.Sched.of_script r.Inputs.script;
            fuel = Inputs.fuel }
        in
        Jmpax.Pipeline.check ~config ~spec:s.spec r.Inputs.program)
  in
  (* Wire v3 both ways. *)
  let _, encode_s, _ =
    fastest (fun () -> Jmpax.Wire.Framed3.encode s.header s.messages)
  in
  let (reader, _), decode_s, _ = fastest (fun () -> decode s.bytes) in
  (* Causal delivery alone, over the all-events stream the message-driven
     engines would see for this workload. *)
  let all_events =
    if r.Inputs.relevant = None then s.messages
    else Predict.Engine.messages_of_exec exec
  in
  let causal_run () =
    let c = Predict.Causal.create ~nthreads:(Exec.nthreads exec) () in
    List.iter (fun m -> ignore (Predict.Causal.feed c m)) all_events;
    for t = 0 to Exec.nthreads exec - 1 do
      Predict.Causal.end_of_thread c t
    done;
    Predict.Causal.finish c;
    Predict.Causal.peak_buffered c
  in
  let causal_peak, causal_s, _ = fastest causal_run in
  let all_header = { s.header with Jmpax.Wire.init = Exec.init exec } in
  let engine kind input header =
    let spec = if kind = Predict.Engine.Lattice then Some s.spec else None in
    fastest (fun () -> engine_run ~kinds:[ kind ] ~spec ~header input)
  in
  let _, race_s, race_w = engine Predict.Engine.Race all_events all_header in
  let _, atom_s, atom_w = engine Predict.Engine.Atomicity all_events all_header in
  (* The lattice over the spec's relevant writes of this execution. *)
  let lattice_msgs =
    if r.Inputs.relevant = Some s.spec_vars then s.messages
    else replay_emitter ~clock:Clock.Registry.default ~relevance:spec_relevance exec
  in
  let lattice_header =
    { s.header with
      Jmpax.Wire.init = List.filter (fun (x, _) -> List.mem x s.spec_vars) (Exec.init exec) }
  in
  let lattice_b, lattice_s, lattice_w =
    engine Predict.Engine.Lattice lattice_msgs lattice_header
  in
  let gc =
    match Predict.Engines.online lattice_b with
    | Some o -> Predict.Online.gc_stats o
    | None -> failwith "lattice probe: no lattice engine"
  in
  let lattice_n = List.length lattice_msgs in
  (* A checkpoint of the request path's engines at the end of the input. *)
  let ck_path = Filename.concat s.dir "probe.ckpt" in
  let path_bundle =
    engine_run ~kinds:s.kinds
      ~spec:(if List.mem Predict.Engine.Lattice s.kinds then Some s.spec else None)
      ~header:s.header s.messages
  in
  let ck = checkpoint_of ~spec:s.spec reader path_bundle in
  let _, ck_s, _ = fastest ~n:5 (fun () -> write_checkpoint ck_path ck) in
  let ck_bytes = (Unix.stat ck_path).Unix.st_size in
  Sys.remove ck_path;
  (* The serve session state machine over the same bytes. *)
  let session_run () =
    with_session s.session (fun session ours ->
        ignore (handshake session s.session "probe");
        drain_replies ours;
        let t0 = Unix.gettimeofday () in
        let len = String.length s.bytes in
        let pos = ref 0 in
        while !pos < len do
          let n = min chunk (len - !pos) in
          ignore (Serve.Session.on_bytes session (String.sub s.bytes !pos n));
          drain_replies ours;
          pos := !pos + n
        done;
        (match Serve.Session.state session with
        | Serve.Session.Done -> ()
        | _ -> failwith ("session probe did not finish: " ^ Serve.Session.fail_reason session));
        Unix.gettimeofday () -. t0)
  in
  let session_s =
    List.fold_left min infinity (List.init reps (fun _ -> session_run ()))
  in
  let handshake_s =
    List.fold_left min infinity
      (List.init 5 (fun _ ->
           with_session s.session (fun session ours ->
               let t0 = Unix.gettimeofday () in
               ignore (handshake session s.session "probe");
               let dt = Unix.gettimeofday () -. t0 in
               drain_replies ours;
               dt)))
  in
  (* Leave nothing behind in the scratch directory. *)
  Option.iter
    (fun dir -> Array.iter (fun f -> Inputs.remove_tree (Filename.concat dir f)) (Sys.readdir dir))
    s.session.Serve.Session.checkpoint_dir;
  let ns x n = per n (x *. 1e9) in
  [ ("tml.compile.self_ms", compile_s *. 1e3);
    ("tml.vm.ns_per_event", ns plain_s steps);
    ("mvc.emit.ns_per_event", ns emit_s steps);
    ("mvc.emit.words_per_event", per steps emit_w);
    ("mvc.algorithm.default.ns_per_event", ns default_s events);
    ("mvc.algorithm.default.words_per_event", per events default_w);
    ("mvc.algorithm.best_other_ratio",
      if Float.is_finite best_other then best_other /. default_s else 1.0);
    ("check.analysis.ns_per_event", ns (check_s -. compile_s -. check_instr_s) steps);
    ("wire.encode.ns_per_event", ns encode_s msgs);
    ("wire.decode.ns_per_event", ns decode_s msgs);
    ("wire.bytes_per_event", per msgs (float_of_int (String.length s.bytes)));
    ("causal.ns_per_event", ns causal_s (List.length all_events));
    ("causal.peak_buffered", float_of_int causal_peak);
    ("engine.race.ns_per_event", ns race_s (List.length all_events));
    ("engine.race.words_per_event", per (List.length all_events) race_w);
    ("engine.atomicity.ns_per_event", ns atom_s (List.length all_events));
    ("engine.atomicity.words_per_event", per (List.length all_events) atom_w);
    ("engine.lattice.ns_per_event", ns lattice_s lattice_n);
    ("engine.lattice.words_per_event", per lattice_n lattice_w);
    ("lattice.peak_frontier_cuts", float_of_int gc.Predict.Online.peak_frontier_cuts);
    ("lattice.monitor_steps_per_event", per lattice_n (float_of_int gc.Predict.Online.monitor_steps));
    ("checkpoint.write_us", ck_s *. 1e6);
    ("checkpoint.bytes", float_of_int ck_bytes);
    ("serve.session.ns_per_event", ns session_s msgs);
    ("serve.handshake_us", handshake_s *. 1e6) ]
  @ List.concat_map
      (fun (name, t, w) ->
        [ (Printf.sprintf "mvc.algorithm.%s.ns_per_event" name, ns t events);
          (Printf.sprintf "mvc.algorithm.%s.words_per_event" name, per events w) ])
      backends

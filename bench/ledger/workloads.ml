(* The four workloads: what each sets up, what one request is, how the
   untraced run measures it and how the traced run decomposes it.

   - check-wide: [Pipeline.check] on a 64-thread program, one seeded
     random schedule per call.  Exercises the VM, Algorithm A on 64-wide
     clocks and the offline analyses; bypasses wire, causal delivery,
     checkpoints and serve.
   - stream-lattice: [Stream.run] over a wire-v3 file of a 4-thread run,
     lattice engine.  Exercises frontier expansion and monitor stepping.
   - stream-linear: [Stream.run] over a 64-thread all-events trace,
     reordered in transit, race and atomicity engines.  Exercises causal
     delivery and the linear engines; bypasses the lattice.
   - serve-mixed: a forked daemon driven by two closed-loop writers; one
     session in 16 is a frontier hog that the budget degrades.  The only
     workload with per-session costs: handshake, socket reads,
     checkpoint writes, budget checks. *)

open Trace

(* Internal events per check-wide iteration: enough that the VM and the
   emitter take their designed share (40%+) of a check.  The emitter
   alone stays a few percent of a check whatever the shape: at 64
   threads the VM's scheduling and the offline analyses dwarf it, so
   check-wide cannot judge a clock change end to end (see README.md). *)
let check_nops = 20

let lattice_threads = 4
let reorder_window = 64

(* The hog's width and the frontier budget that degrades it (E23). *)
let hog_threads = 6
let max_frontier_cuts = 256

type profile = {
  setups : int;  (** set-ups per run; [setup_s] is their median *)
  check_threads : int;
  check_iters : int;
  check_pool : int;  (** distinct seeded schedules, cycled *)
  check_warmup : int;
  lattice_iters : int;
  linear_threads : int;
  linear_iters : int;
  linear_traces : int;  (** independent traces, cycled: a run averages their costs *)
  serve_iters : int;
  serve_payloads : int;
  hog_per_thread : int;
  hog_every : int;  (** one session in [hog_every] is a hog *)
  rss_sessions : int;  (** serve sessions before the daemon's [peak_rss_mb] is read *)
  checkpoint_every : int;
}

let full =
  { setups = 5;
    check_threads = 64;
    check_iters = 2;
    check_pool = 200;
    check_warmup = 8;
    lattice_iters = 12_500;
    linear_threads = 64;
    linear_iters = 10;
    linear_traces = 4;
    serve_iters = 2_500;
    serve_payloads = 4;
    hog_per_thread = 100;
    hog_every = 16;
    rss_sessions = 128;
    checkpoint_every = 1_000 }

(* Small enough for the test suite's smoke run, yet every stream spans
   at least one whole 64 KiB chunk. *)
let tiny =
  { setups = 2;
    check_threads = 8;
    check_iters = 2;
    check_pool = 4;
    check_warmup = 1;
    lattice_iters = 1_000;
    linear_threads = 8;
    linear_iters = 100;
    linear_traces = 2;
    serve_iters = 60;
    serve_payloads = 2;
    hog_per_thread = 60;
    hog_every = 4;
    rss_sessions = 8;
    checkpoint_every = 50 }

type measured = {
  attempted : int;
  failed : int;
  eps : float list;  (** events/s per rep *)
  latency_ms : float list;
  lag_ms : float list;  (** input end -> verdict; empty where not observable *)
  rss_mb : float;
}

type traced = {
  t_attempted : int;
  t_failed : int;
  layers : (string * float) list;
  table : Span.summary list;
  wall : float;  (** traced pass, seconds *)
}

module type S = sig
  type env

  val setup : profile -> seed:int -> tamper:bool -> index:int -> env
  (** Input generation and everything else a run needs before timing,
      including one untimed warm-up pass.  [index] tells repeated
      set-ups in one run apart. *)

  val fingerprint : env -> int * string
  (** Event count and digest of the generated inputs. *)

  val measure : env -> seconds:float -> measured
  val trace : env -> seconds:float -> traced
  val close : env -> unit
end

let tampered expected = expected ^ " [tampered]"

(* Run [f] on successive request indices until [seconds] have passed
   (at least once), sampling machine speed between requests; returns the
   number of requests. *)
let for_seconds seconds f =
  let t0 = Unix.gettimeofday () in
  let rec go i =
    if i > 0 && Unix.gettimeofday () -. t0 >= seconds then i
    else begin
      Calib.tick ();
      f i;
      go (i + 1)
    end
  in
  go 0

let ms s = s *. 1e3

let share part whole = if whole > 0.0 then part /. whole else 0.0

(* A serve session's configuration; the daemon's and the session
   probe's. *)
let session_config ~spec ~kinds ?(budget = Jmpax.Budget.unlimited) ?(checkpoint_every = 1) () =
  { Serve.Session.spec;
    spec_fp = Jmpax.Checkpoint.fingerprint spec;
    engines = kinds;
    max_buffered = None;
    jobs = 1;
    recovery = Jmpax.Config.Fail;
    checkpoint_dir = None;
    checkpoint_every;
    budget;
    on_overload = Jmpax.Budget.Degrade;
    now = Unix.gettimeofday }

(* {1 The composed stream path}

   What [Stream.run] and a serve session do, rebuilt from public calls so
   each layer can be timed on its own.  Like both front ends it works
   one decoded item at a time: [Wire.Reader.next], then the item into
   every engine, the lattice under the budget (degraded on a frontier
   breach, as the daemon does); at [Await], unless every thread has
   ended, a periodic checkpoint as a serve session takes it, then the
   next transport read.  The one difference: one engine bundle per
   engine kind instead of one bundle holding them all, so each engine's
   time is its own.  Each engine in a bundle keeps its own state either
   way.  What the front ends do beyond this (per-message statistics, log
   lines, the serve loop) is not rebuilt: against their untraced time it
   is what the stages leave uncovered. *)

type path = {
  kinds : Predict.Engine.kind list;
  spec : Pastltl.Formula.t;
  budget : Jmpax.Budget.limits;
  checkpoint : (string * int) option;
}

type path_result = {
  lines : string list;  (** verdict lines, engine order; the lattice's last *)
  checkpoints : int;
  degraded : bool;
  lag : float;  (** the input's last bytes read -> verdict, seconds *)
}

let decode_tally = Span.tally "wire.decode"
let degraded_tally = Span.tally "engine.degraded"

let composed path ~read =
  let tallies =
    List.map (fun k -> (k, Span.tally ("engine." ^ Predict.Engine.kind_to_string k))) path.kinds
  in
  let engine_tally kind b =
    if Predict.Engines.online b = None && kind = Predict.Engine.Lattice then degraded_tally
    else List.assq kind tallies
  in
  let reader = Jmpax.Wire.Reader.create () in
  let bundles = ref [] in
  let buf = Bytes.create Probes.chunk in
  let checkpoints = ref 0 and last_ck = ref 0 and last = ref 0.0 in
  let check_budget b =
    if not (Jmpax.Budget.is_unlimited path.budget) then
      match Jmpax.Budget.check path.budget (Jmpax.Budget.usage b) with
      | Some breach
        when Jmpax.Budget.degradable breach && Predict.Engines.online b <> None ->
          Predict.Engines.degrade b ~reason:(Jmpax.Budget.breach_reason breach)
      | Some breach -> failwith (Jmpax.Budget.breach_message breach)
      | None -> ()
  in
  let maybe_checkpoint () =
    match (path.checkpoint, !bundles) with
    | Some (file, every), [ (_, b) ] when Predict.Engines.ticks b - !last_ck >= every ->
        Span.with_ "checkpoint.write" (fun () ->
            Probes.write_checkpoint file (Probes.checkpoint_of ~spec:path.spec reader b));
        last_ck := Predict.Engines.ticks b;
        incr checkpoints
    | _ -> ()
  in
  let logically_ended () =
    Jmpax.Wire.Reader.pending_bytes reader = 0
    && Array.for_all Fun.id (Jmpax.Wire.Reader.ended_threads reader)
    && !bundles <> []
  in
  let each f =
    List.iter (fun (kind, b) -> Span.tallied (engine_tally kind b) (fun () -> f kind b)) !bundles
  in
  let rec loop () =
    match Span.tallied decode_tally (fun () -> Jmpax.Wire.Reader.next reader) with
    | Jmpax.Wire.Reader.Item (Jmpax.Wire.Reader.Header h) ->
        bundles :=
          List.map
            (fun kind ->
              let spec = if kind = Predict.Engine.Lattice then Some path.spec else None in
              ( kind,
                Predict.Engines.create ~kinds:[ kind ] ~nthreads:h.Jmpax.Wire.nthreads
                  ~init:h.Jmpax.Wire.init ~spec () ))
            path.kinds;
        loop ()
    | Jmpax.Wire.Reader.Item (Jmpax.Wire.Reader.Msg m) ->
        each (fun kind b ->
            Predict.Engines.feed b m;
            if kind = Predict.Engine.Lattice then check_budget b);
        loop ()
    | Jmpax.Wire.Reader.Item (Jmpax.Wire.Reader.End_of_thread t) ->
        each (fun _ b -> Predict.Engines.end_of_thread b t);
        loop ()
    | Jmpax.Wire.Reader.Skip { error; _ } ->
        failwith ("decode: " ^ Jmpax.Wire.Error.to_string error)
    | Jmpax.Wire.Reader.Await when logically_ended () ->
        Jmpax.Wire.Reader.close reader;
        loop ()
    | Jmpax.Wire.Reader.Await ->
        maybe_checkpoint ();
        let n = Span.with_ "transport.read" (fun () -> read buf 0 Probes.chunk) in
        if n = 0 then Jmpax.Wire.Reader.close reader
        else begin
          last := Unix.gettimeofday ();
          Jmpax.Wire.Reader.feed_bytes reader buf 0 n
        end;
        loop ()
    | Jmpax.Wire.Reader.Eof -> ()
  in
  loop ();
  each (fun _ b -> Predict.Engines.finish b);
  let lines =
    List.concat_map
      (fun (_, b) ->
        let engine_lines = List.map snd (Predict.Engines.verdict_lines b) in
        match (Predict.Engines.degraded b, Predict.Engines.online b) with
        | Some d, _ -> engine_lines @ [ Jmpax.Pipeline.degraded_verdict_line d ]
        | None, Some o -> engine_lines @ [ Jmpax.Pipeline.verdict_line (Predict.Online.violated o) ]
        | None, None -> engine_lines)
      !bundles
  in
  { lines;
    checkpoints = !checkpoints;
    degraded = List.exists (fun (_, b) -> Predict.Engines.degraded b <> None) !bundles;
    lag = Unix.gettimeofday () -. !last }

(* Each stage's self time over the front end's untraced time for the
   same requests, and how much of that time the stages cover: what the
   composed path leaves out counts against the coverage. *)
let path_shares table ~untraced =
  let s name = share (Span.self_of table name) untraced in
  [ ("transport.read.share", s "transport.read");
    ("wire.decode.share", s "wire.decode");
    ("engine.lattice.share", s "engine.lattice");
    ("engine.race.share", s "engine.race");
    ("engine.atomicity.share", s "engine.atomicity");
    ("checkpoint.share", s "checkpoint.write");
    ( "trace.coverage",
      Stats.sum
        (List.map s
           [ "transport.read"; "wire.decode"; "engine.lattice"; "engine.degraded"; "engine.race";
             "engine.atomicity"; "checkpoint.write" ]) ) ]

(* {1 check-wide} *)

module Check_wide = struct
  type env = {
    program : Tml.Ast.program;
    source : string;
    spec : Pastltl.Formula.t;
    seeds : int array;
    expected : string;
    first : Tml.Vm.run_result;
    dir : string;
  }

  let spec_vars = [ "c" ]

  let verdict (out : Jmpax.Pipeline.output) =
    match out.Jmpax.Pipeline.run.Tml.Vm.outcome with
    | Tml.Vm.Completed ->
        Jmpax.Pipeline.verdict_line (Jmpax.Pipeline.predicted_violation out)
    | o -> Format.asprintf "run did not complete: %a" Tml.Vm.pp_outcome o

  let run_check ~spec program seed =
    let config = Jmpax.Config.with_seed seed (Jmpax.Config.default ()) in
    Jmpax.Pipeline.check ~config ~spec program

  let check env i = run_check ~spec:env.spec env.program env.seeds.(i mod Array.length env.seeds)

  let setup p ~seed ~tamper ~index:_ =
    let source =
      Inputs.program_source ~threads:p.check_threads ~iters:p.check_iters ~nops:check_nops
    in
    let program = Tml.Parser.parse_program source in
    let spec = Pastltl.Fparser.parse Inputs.counter_spec_source in
    let seeds = Array.init p.check_pool (Inputs.derive seed "check-wide") in
    let warm =
      List.init p.check_warmup (fun i -> run_check ~spec program seeds.(i mod p.check_pool))
    in
    (* The counter's writes form a chain and it only ever counts up from
       0, so it passes through 1: no run violates the spec. *)
    let expected = Jmpax.Pipeline.verdict_line false in
    { program; source; spec; seeds;
      first = (List.hd warm).Jmpax.Pipeline.run;
      expected = (if tamper then tampered expected else expected);
      dir = Sys.getcwd () }

  let fingerprint env =
    let header =
      { Jmpax.Wire.nthreads = List.length env.program.Tml.Ast.threads;
        init = List.filter (fun (x, _) -> List.mem x spec_vars) env.program.Tml.Ast.shared }
    in
    ( env.first.Tml.Vm.steps,
      Inputs.digest
        [ env.source;
          Inputs.counter_spec_source;
          String.concat "," (Array.to_list (Array.map string_of_int env.seeds));
          Jmpax.Wire.Framed3.encode header env.first.Tml.Vm.messages ] )

  let measure env ~seconds =
    let failed = ref 0 and eps = ref [] and lat = ref [] in
    let n =
      for_seconds seconds (fun i ->
          let t0 = Unix.gettimeofday () in
          let out = check env i in
          let dt = Unix.gettimeofday () -. t0 in
          if verdict out <> env.expected then incr failed;
          lat := ms dt :: !lat;
          eps := (float_of_int out.Jmpax.Pipeline.run.Tml.Vm.steps /. dt) :: !eps)
    in
    { attempted = n; failed = !failed; eps = !eps; latency_ms = !lat; lag_ms = [];
      rss_mb = Daemon.vm_hwm_mb 0 }

  (* Each traced request is an untraced check, then the same check's
     work rebuilt from public calls under the same schedule: compile +
     instrument, the instrumented VM (recording the schedule), the plain
     VM replaying it, then the offline race, deadlock and atomicity
     passes over the execution.  Shares are over the untraced checks'
     time, taken right beside the traced ones, so machine drift cannot
     come between them.  The check splits into tml.vm (the plain run),
     mvc.emit (instrumented minus plain), tml.compile, and
     check.analysis (the rest).  What cannot be called without the
     analyzer's internals, the lattice over the spec's messages, is not
     rebuilt: it is the check's time the stages leave uncovered. *)
  let trace env ~seconds =
    Span.reset ();
    let timed name f =
      let t0 = Unix.gettimeofday () in
      let r = Span.with_ name f in
      (r, Unix.gettimeofday () -. t0)
    in
    let failed = ref 0 and untraced = ref 0.0 and wall = ref 0.0 in
    let compile = ref 0.0 and plain = ref 0.0 and instr = ref 0.0 and analysis = ref [] in
    let k =
      for_seconds (seconds /. 2.0) (fun i ->
          let t0 = Unix.gettimeofday () in
          let out = check env i in
          let dt = Unix.gettimeofday () -. t0 in
          untraced := !untraced +. dt;
          if verdict out <> env.expected then incr failed;
          Span.set_request i;
          let sched, script =
            Tml.Sched.recording (Tml.Sched.random ~seed:env.seeds.(i mod Array.length env.seeds))
          in
          let (), traced =
            timed "check" (fun () ->
                let (plain_image, instrumented), c =
                  timed "tml.compile" (fun () ->
                      let plain = Tml.Compile.compile env.program in
                      (plain, Tml.Instrument.instrument plain))
                in
                let run, n =
                  timed "vm.instrumented" (fun () ->
                      Tml.Vm.run_image ~fuel:Inputs.fuel
                        ~relevance:(Mvc.Relevance.writes_of_vars spec_vars) ~sched instrumented)
                in
                let _, p =
                  timed "tml.vm" (fun () ->
                      Tml.Vm.run_image ~fuel:Inputs.fuel ~sched:(Tml.Sched.of_script (script ()))
                        plain_image)
                in
                let exec = Option.get run.Tml.Vm.exec in
                Span.with_ "offline.race" (fun () -> ignore (Predict.Race.detect exec));
                Span.with_ "offline.deadlock" (fun () -> ignore (Predict.Lockgraph.analyze exec));
                Span.with_ "offline.atomicity" (fun () -> ignore (Predict.Atomicity.analyze exec));
                compile := !compile +. c;
                instr := !instr +. n;
                plain := !plain +. p;
                analysis := (dt -. c -. n) :: !analysis)
          in
          wall := !wall +. traced)
    in
    let wall = !wall and untraced = !untraced in
    let table = Span.summarize () in
    let covered =
      Stats.sum
        (List.map (Span.self_of table)
           [ "tml.compile"; "vm.instrumented"; "offline.race"; "offline.deadlock";
             "offline.atomicity" ])
    in
    let sample =
      let r =
        Inputs.record ~source:env.source ~relevant:(Some spec_vars) ~sched_seed:env.seeds.(0)
      in
      let header = Inputs.header_of r in
      let messages = r.Inputs.run.Tml.Vm.messages in
      { Probes.recording = r;
        spec = env.spec;
        spec_vars;
        kinds = [ Predict.Engine.Lattice ];
        header;
        messages;
        bytes = Jmpax.Wire.Framed3.encode header messages;
        session = session_config ~spec:env.spec ~kinds:[ Predict.Engine.Lattice ] ();
        dir = env.dir }
    in
    { t_attempted = k;
      t_failed = !failed;
      table;
      wall;
      layers =
        Probes.run sample
        @ [ ("tml.vm.share", share !plain untraced);
            ("mvc.emit.share", share (!instr -. !plain) untraced);
            ("check.analysis.share", share (untraced -. !compile -. !instr) untraced);
            ("verdict.lag_p95_ms", ms (Stats.percentile !analysis 95));
            ("trace.overhead_ratio", wall /. untraced);
            ("trace.coverage", share covered untraced) ] }

  let close _ = ()
end

(* {1 stream-lattice and stream-linear} *)

module type STREAM = sig
  val name : string
  val kinds : Predict.Engine.kind list
  val threads : profile -> int
  val iters : profile -> int

  val traces : profile -> int
  (** Independent seeded traces per run; requests cycle through them. *)

  val spec_source : profile -> string
  val spec_vars : profile -> Types.var list

  val relevant : profile -> Types.var list option
  (** What the recording run emits: the spec's writes, or all events. *)

  val deliver : seed:int -> Message.t list -> Message.t list
  (** The transport's delivery order. *)

  val reference : Inputs.recording -> string list
  (** Verdict lines a correct run prints, from a reference outside the
      request path. *)
end

module Stream (W : STREAM) = struct
  type env = {
    profile : profile;
    seed : int;
    spec : Pastltl.Formula.t;
    spec_vars : Types.var list;
    messages : int;
    digest : string;
    inputs : (string * string list) array;  (** trace file, its reference verdict lines *)
    dir : string;
  }

  let lines_of (o : Jmpax.Stream.outcome) =
    List.map snd o.Jmpax.Stream.s_engines
    @ if o.Jmpax.Stream.s_lattice then [ Jmpax.Pipeline.verdict_line o.Jmpax.Stream.s_violated ]
      else []

  (* One request: the front end over a trace file.  [on_chunk] sees each
     64 KiB chunk's processing time: from [read] returning it to the
     next [read] call. *)
  let stream ?(on_chunk = ignore) ~spec file =
    let fd = Unix.openfile file [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let transport = Jmpax.Transport.of_fd fd in
        (* [returned]: when the chunk in flight was handed over; [last]:
           when the input's final bytes were.  The front end stops
           reading at the stream's logical end, so the last chunk ends
           with the verdict, not with another read. *)
        let returned = ref nan and last = ref nan in
        let read buf pos len =
          let now = Unix.gettimeofday () in
          if not (Float.is_nan !returned) then on_chunk (now -. !returned);
          let n = Jmpax.Transport.read transport buf pos len in
          if n > 0 then last := Unix.gettimeofday ();
          (* Only whole chunks are samples: the file's short tail chunk
             is a different amount of work. *)
          returned := if n = Probes.chunk then !last else nan;
          n
        in
        let result = Jmpax.Stream.run ~engines:W.kinds ~spec ~read () in
        let now = Unix.gettimeofday () in
        if not (Float.is_nan !returned) then on_chunk (now -. !returned);
        let lag = now -. !last in
        match result with
        | Ok o -> (lines_of o, o.Jmpax.Stream.s_stats.Jmpax.Stream.messages, lag)
        | Error e -> ([ "stream error: " ^ Jmpax.Wire.Error.to_string e ], 0, lag))

  let recording p ~seed ~iters j =
    let source = Inputs.program_source ~threads:(W.threads p) ~iters ~nops:0 in
    let r =
      Inputs.record ~source ~relevant:(W.relevant p) ~sched_seed:(Inputs.derive seed W.name j)
    in
    (r, W.deliver ~seed:(Inputs.derive seed "deliver" j) r.Inputs.run.Tml.Vm.messages)

  let setup p ~seed ~tamper ~index =
    let spec = Pastltl.Fparser.parse (W.spec_source p) in
    let dir = Sys.getcwd () in
    let traces =
      List.init (W.traces p) (fun j ->
          let r, messages = recording p ~seed ~iters:(W.iters p) j in
          let bytes = Jmpax.Wire.Framed3.encode (Inputs.header_of r) messages in
          let file = Filename.concat dir (Printf.sprintf "%s.%d.%d.v3" W.name index j) in
          Inputs.write_file file bytes;
          let expected = W.reference r in
          let expected = if tamper then List.map tampered expected else expected in
          (List.length messages, bytes, (file, expected)))
    in
    let env =
      { profile = p;
        seed;
        spec;
        spec_vars = W.spec_vars p;
        messages = List.fold_left (fun acc (n, _, _) -> acc + n) 0 traces;
        digest = Inputs.digest (W.spec_source p :: List.map (fun (_, b, _) -> b) traces);
        inputs = Array.of_list (List.map (fun (_, _, i) -> i) traces);
        dir }
    in
    Array.iter (fun (file, _) -> ignore (stream ~spec file)) env.inputs;
    env

  let fingerprint env = (env.messages, env.digest)

  let input env i = env.inputs.(i mod Array.length env.inputs)

  let measure env ~seconds =
    let failed = ref 0 and eps = ref [] and lat = ref [] and lags = ref [] in
    let n =
      for_seconds seconds (fun i ->
          let file, expected = input env i in
          let t0 = Unix.gettimeofday () in
          let lines, msgs, lag =
            stream ~on_chunk:(fun dt -> lat := ms dt :: !lat) ~spec:env.spec file
          in
          let dt = Unix.gettimeofday () -. t0 in
          if lines <> expected then incr failed;
          eps := (float_of_int msgs /. dt) :: !eps;
          lags := ms lag :: !lags)
    in
    { attempted = n; failed = !failed; eps = !eps; latency_ms = !lat; lag_ms = !lags;
      rss_mb = Daemon.vm_hwm_mb 0 }

  (* Each traced request is an untraced [Stream.run] pass, then the
     composed path over the same file, so shares are over the front
     end's own time taken right beside them. *)
  let trace env ~seconds =
    Span.reset ();
    let untraced = ref 0.0 and wall = ref 0.0 and failed = ref 0 and lags = ref [] in
    let path =
      { kinds = W.kinds; spec = env.spec; budget = Jmpax.Budget.unlimited; checkpoint = None }
    in
    let k =
      for_seconds (seconds /. 2.0) (fun i ->
          let file, expected = input env i in
          let t0 = Unix.gettimeofday () in
          let lines, _, _ = stream ~spec:env.spec file in
          untraced := !untraced +. (Unix.gettimeofday () -. t0);
          if lines <> expected then incr failed;
          Span.set_request i;
          let fd = Unix.openfile file [ Unix.O_RDONLY ] 0 in
          let transport = Jmpax.Transport.of_fd fd in
          let t0 = Unix.gettimeofday () in
          let r =
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                Span.with_ "stream" (fun () -> composed path ~read:(Jmpax.Transport.read transport)))
          in
          wall := !wall +. (Unix.gettimeofday () -. t0);
          if r.lines <> expected then incr failed;
          lags := ms r.lag :: !lags)
    in
    let wall = !wall and untraced = !untraced in
    let table = Span.summarize () in
    (* Probes run over a recording of the same program under the same
       seed, a quarter as long as the run's traces together: per-event
       costs of the same shape, at a fraction of the probe time. *)
    let sample =
      let p = env.profile in
      let recording, messages =
        recording p ~seed:env.seed ~iters:(max 1 (W.iters p * W.traces p / 4)) 0
      in
      let header = Inputs.header_of recording in
      { Probes.recording;
        spec = env.spec;
        spec_vars = env.spec_vars;
        kinds = W.kinds;
        header;
        messages;
        bytes = Jmpax.Wire.Framed3.encode header messages;
        session = session_config ~spec:env.spec ~kinds:W.kinds ();
        dir = env.dir }
    in
    { t_attempted = k;
      t_failed = !failed;
      table;
      wall;
      layers =
        Probes.run sample
        @ path_shares table ~untraced
        @ [ ("verdict.lag_p95_ms", Stats.percentile !lags 95);
            ("trace.overhead_ratio", wall /. untraced) ] }

  let close env = Array.iter (fun (file, _) -> try Sys.remove file with Sys_error _ -> ()) env.inputs
end

module Stream_lattice = Stream (struct
  let name = "stream-lattice"
  let kinds = [ Predict.Engine.Lattice ]
  let threads _ = lattice_threads
  let iters p = p.lattice_iters
  let traces _ = 1
  let spec_vars _ = "c" :: Inputs.cell_vars lattice_threads
  let spec_source _ = Inputs.invariant_source lattice_threads
  let relevant p = Some (spec_vars p)
  let deliver ~seed:_ messages = messages

  (* The invariant holds in every consistent cut (see [Inputs]). *)
  let reference _ = [ Jmpax.Pipeline.verdict_line false ]
end)

module Stream_linear = Stream (struct
  let name = "stream-linear"
  let kinds = [ Predict.Engine.Race; Predict.Engine.Atomicity ]
  let threads p = p.linear_threads
  let iters p = p.linear_iters
  let traces p = p.linear_traces
  let spec_vars _ = [ "c" ]
  let spec_source _ = Inputs.counter_spec_source
  let relevant _ = None

  (* Multi-channel delivery (paper §2.2): every message may overtake up
     to [reorder_window] - 1 earlier ones.  Reordered in blocks so
     set-up stays linear in the trace length. *)
  let deliver ~seed messages =
    let block = 4096 in
    let rec go i acc = function
      | [] -> List.concat (List.rev acc)
      | ms ->
          let chunk = List.filteri (fun j _ -> j < block) ms in
          let rest = List.filteri (fun j _ -> j >= block) ms in
          let seed = Inputs.derive seed "reorder" i in
          go (i + 1)
            (Observer.Channel.bounded_reorder ~seed ~window:reorder_window chunk :: acc)
            rest
    in
    go 0 [] messages

  (* The offline passes over the recorded execution: a second
     implementation the streaming engines must agree with. *)
  let reference (r : Inputs.recording) =
    [ Predict.Race.verdict_of_report (Predict.Race.detect r.Inputs.exec);
      Predict.Atomicity.verdict_of_report (Predict.Atomicity.analyze r.Inputs.exec) ]
end)

(* {1 serve-mixed} *)

module Serve_mixed = struct
  type env = {
    profile : profile;
    spec : Pastltl.Formula.t;
    spec_vars : Types.var list;
    config : Serve.Session.config;
    recordings : Inputs.recording list;
    payloads : (string * int) array;  (** normal sessions: bytes, messages *)
    hog : string * int;
    daemon : Daemon.t;
    ckpt_dir : string;
    expected : string;
    mutable next_sid : int;
  }

  let threads = 2

  (* The E23 shape: [hog_threads] fully concurrent threads, each message
     carrying only its own clock component, so the frontier holds
     C(level + n - 1, n - 1) cuts per level until the budget degrades
     the session.  It writes x0 := 0, which keeps the invariant. *)
  let hog_payload p =
    let n = hog_threads in
    let header = { Jmpax.Wire.nthreads = n; init = [ ("c", 0); ("x0", 0); ("x1", 0) ] } in
    let messages =
      List.concat
        (List.init p.hog_per_thread (fun i ->
             List.init n (fun t ->
                 let mvc = Array.make n 0 in
                 mvc.(t) <- i + 1;
                 Message.make ~eid:((i * n) + t) ~tid:t ~var:"x0" ~value:0
                   ~mvc:(Vclock.of_array mvc))))
    in
    (Jmpax.Wire.Framed3.encode header messages, List.length messages)

  let job env =
    let k = env.next_sid in
    env.next_sid <- k + 1;
    let sid = Printf.sprintf "w%d" k in
    if k mod env.profile.hog_every = env.profile.hog_every - 1 then
      { Daemon.sid; payload = fst env.hog; messages = snd env.hog; kind = Daemon.Hog }
    else
      let payload, messages = env.payloads.(k mod Array.length env.payloads) in
      { Daemon.sid; payload; messages; kind = Daemon.Normal }

  let ok env (s : Daemon.session) =
    match (s.Daemon.job.Daemon.kind, s.Daemon.verdict) with
    | Daemon.Normal, Ok line -> line = env.expected
    | Daemon.Hog, Ok line -> Daemon.contains ~needle:"degraded(" line
    | _, Error _ -> false

  (* Sessions back to back on both connections until [until] (an
     absolute time) or [count] sessions have started. *)
  let run_sessions ?(until = infinity) ?(count = max_int) env =
    let started = ref 0 in
    Daemon.closed_loop env.daemon ~fp:env.config.Serve.Session.spec_fp (fun () ->
        if !started >= count || Unix.gettimeofday () >= until then None
        else begin
          incr started;
          Some (job env)
        end)

  let setup p ~seed ~tamper ~index =
    let spec_vars = "c" :: Inputs.cell_vars threads in
    let spec = Pastltl.Fparser.parse (Inputs.invariant_source threads) in
    let budget = Jmpax.Budget.limits ~max_frontier_cuts () in
    let config =
      session_config ~spec ~kinds:[ Predict.Engine.Lattice ] ~budget
        ~checkpoint_every:p.checkpoint_every ()
    in
    let ckpt_dir = Printf.sprintf "ckpt%d" index in
    Unix.mkdir ckpt_dir 0o755;
    (* Fork from a compacted heap, before the inputs exist: the daemon's
       resident set is then its own, not pages inherited from the load
       generator. *)
    Gc.compact ();
    let daemon =
      Daemon.spawn ~sock:(Printf.sprintf "serve%d.sock" index) ~checkpoint_dir:ckpt_dir
        ~log:(Printf.sprintf "daemon%d.log" index) ~session:config
    in
    let source = Inputs.program_source ~threads ~iters:p.serve_iters ~nops:0 in
    let recordings =
      List.init p.serve_payloads (fun i ->
          Inputs.record ~source ~relevant:(Some spec_vars)
            ~sched_seed:(Inputs.derive seed "serve-mixed" i))
    in
    let payloads =
      Array.of_list
        (List.map
           (fun r ->
             ( Jmpax.Wire.Framed3.encode (Inputs.header_of r) r.Inputs.run.Tml.Vm.messages,
               List.length r.Inputs.run.Tml.Vm.messages ))
           recordings)
    in
    let expected = Jmpax.Pipeline.verdict_line false in
    let env =
      { profile = p; spec; spec_vars; config; recordings; payloads; hog = hog_payload p; daemon;
        ckpt_dir; expected = (if tamper then tampered expected else expected); next_sid = 0 }
    in
    (* Warm-up: the forked daemon pays its heap growth on its first
       sessions, a hog included. *)
    ignore (run_sessions ~count:p.hog_every env);
    env

  let fingerprint env =
    ( Array.fold_left (fun acc (_, n) -> acc + n) (snd env.hog) env.payloads,
      Inputs.digest
        (Inputs.invariant_source threads :: fst env.hog
        :: Array.to_list (Array.map fst env.payloads)) )

  let session_stats env sessions =
    let normal = List.filter (fun s -> s.Daemon.job.Daemon.kind = Daemon.Normal) sessions in
    ( List.length (List.filter (fun s -> not (ok env s)) sessions),
      List.map (fun s -> ms s.Daemon.latency) normal,
      List.map (fun s -> ms s.Daemon.lag) normal )

  (* The daemon keeps finished sessions until its idle timeout, so its
     memory grows with the sessions served: [peak_rss_mb] is read after
     a fixed number of them, before the timed phase, so that it does not
     rise with throughput.  The timed phase is a series of closed loops
     of [2 * hog_every] sessions each, two hogs among them; a rep is one
     loop, its messages over its time.  Between loops, with no session in
     flight, the daemon times the calibration kernel on its own core:
     its speed, not the load generator's, sets this workload's pace. *)
  let measure env ~seconds =
    let before = run_sessions ~count:env.profile.rss_sessions env in
    let rss_mb = Daemon.vm_hwm_mb env.daemon.Daemon.pid in
    let t0 = Unix.gettimeofday () in
    let rec go reps sessions =
      if reps <> [] && Unix.gettimeofday () -. t0 >= seconds then (reps, sessions)
      else begin
        for _ = 1 to 3 do
          Calib.record (Daemon.calibrate env.daemon)
        done;
        let start = Unix.gettimeofday () in
        let loop = run_sessions ~count:(2 * env.profile.hog_every) env in
        let stop = List.fold_left (fun acc (t, _) -> max acc t) start loop in
        let msgs = List.fold_left (fun acc (_, s) -> acc + s.Daemon.job.Daemon.messages) 0 loop in
        go ((float_of_int msgs /. (stop -. start)) :: reps) (sessions @ List.map snd loop)
      end
    in
    let eps, sessions = go [] [] in
    let failed, lat, lags = session_stats env sessions in
    let failed_before, _, _ = session_stats env (List.map snd before) in
    { attempted = List.length before + List.length sessions;
      failed = failed_before + failed;
      latency_ms = lat;
      lag_ms = lags;
      eps;
      rss_mb }

  (* A session's work composed in-process: socket reads, decode, the
     budgeted lattice bundle, checkpoint writes. *)
  let replay env (job : Daemon.job) =
    let ours, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let pos = ref 0 in
    let len = String.length job.Daemon.payload in
    (* The writer's next chunk goes in, the daemon side reads it. *)
    let read buf off n =
      let k = min n (len - !pos) in
      ignore (Unix.write_substring ours job.Daemon.payload !pos k);
      pos := !pos + k;
      let rec fill got = if got < k then fill (got + Unix.read theirs buf (off + got) (k - got)) else got in
      fill 0
    in
    let path =
      { kinds = [ Predict.Engine.Lattice ];
        spec = env.spec;
        budget = env.config.Serve.Session.budget;
        checkpoint =
          Some (Filename.concat env.ckpt_dir (job.Daemon.sid ^ ".ckpt"), env.profile.checkpoint_every) }
    in
    let s0 = Unix.gettimeofday () in
    let r =
      Fun.protect
        ~finally:(fun () ->
          Unix.close ours;
          Unix.close theirs)
        (fun () -> Span.with_ "serve.session" (fun () -> composed path ~read))
    in
    (Unix.gettimeofday () -. s0, r)

  (* Each traced request is a closed loop of sessions the daemon serves
     untraced, then the same sessions composed in-process.  Shares are
     over the daemon's time for the loop: what the serve loop adds, and
     what the composed path leaves out, is the time the stages leave
     uncovered.  [serve.overhead.share] is the daemon's time the composed
     sessions do not account for: negative when the rebuild, run in this
     process, is the slower of the two. *)
  let trace env ~seconds =
    Span.reset ();
    let failed = ref 0 and hog_time = ref 0.0 and all_time = ref 0.0 in
    let degraded = ref 0 and checkpoints = ref 0 and replayed = ref 0 in
    let untraced = ref 0.0 and daemon_sessions = ref [] in
    let t0 = Unix.gettimeofday () in
    while !replayed = 0 || Unix.gettimeofday () -. t0 < seconds /. 2.0 do
      let start = Unix.gettimeofday () in
      let loop = run_sessions ~count:(2 * env.profile.hog_every) env in
      untraced := !untraced +. (List.fold_left (fun acc (t, _) -> max acc t) start loop -. start);
      daemon_sessions := List.map snd loop @ !daemon_sessions;
      List.iter
        (fun (_, (s : Daemon.session)) ->
          Span.set_request !replayed;
          incr replayed;
          let dt, r = replay env s.Daemon.job in
          all_time := !all_time +. dt;
          checkpoints := !checkpoints + r.checkpoints;
          if r.degraded then incr degraded;
          let verdict = List.nth r.lines (List.length r.lines - 1) in
          match s.Daemon.job.Daemon.kind with
          | Daemon.Normal -> if verdict <> env.expected then incr failed
          | Daemon.Hog ->
              hog_time := !hog_time +. dt;
              if not (Daemon.contains ~needle:"degraded(" verdict) then incr failed)
        loop
    done;
    let wall = !all_time and untraced = !untraced and daemon_sessions = !daemon_sessions in
    let table = Span.summarize () in
    let daemon_failed, _, daemon_lag = session_stats env daemon_sessions in
    let r = List.hd env.recordings in
    let header = Inputs.header_of r in
    let probe_ckpt = "probe-ckpt" in
    if not (Sys.file_exists probe_ckpt) then Unix.mkdir probe_ckpt 0o755;
    let sample =
      { Probes.recording = r;
        spec = env.spec;
        spec_vars = env.spec_vars;
        kinds = [ Predict.Engine.Lattice ];
        header;
        messages = r.Inputs.run.Tml.Vm.messages;
        bytes = fst env.payloads.(0);
        session = { env.config with Serve.Session.checkpoint_dir = Some probe_ckpt };
        dir = Sys.getcwd () }
    in
    { t_attempted = 2 * !replayed;
      t_failed = !failed + daemon_failed;
      table;
      wall;
      layers =
        Probes.run sample
        @ path_shares table ~untraced
        @ [ ("checkpoint.writes_per_session",
              share (float_of_int !checkpoints) (float_of_int !replayed));
            ("budget.degraded_sessions", float_of_int !degraded);
            ("budget.hog_share", share !hog_time wall);
            ("serve.overhead.share",
              share (untraced -. wall) untraced);
            ("verdict.lag_p95_ms", Stats.percentile daemon_lag 95);
            ("trace.overhead_ratio", wall /. untraced) ] }

  let close env =
    let code = Daemon.stop env.daemon in
    if code <> 0 then Printf.eprintf "serve-mixed: daemon drain exited %d\n%!" code;
    Inputs.remove_tree env.ckpt_dir
end

let all : (string * (module S)) list =
  [ ("check-wide", (module Check_wide));
    ("stream-lattice", (module Stream_lattice));
    ("stream-linear", (module Stream_linear));
    ("serve-mixed", (module Serve_mixed)) ]

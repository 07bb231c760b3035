module M = Telemetry.Metrics
module L = Telemetry.Log
module Wire = Jmpax.Wire
module Driver = Jmpax.Driver

let m_checkpoints = M.counter "serve.checkpoints"
let m_verdicts = M.counter "serve.verdicts"
let m_violations = M.counter "serve.violations"
let m_session_failures = M.counter "serve.session_failures"
let m_degrades = M.counter "serve.degrades"
let m_budget_evictions = M.counter "serve.budget_evictions"

(* Ingest -> verdict-state-updated latency: how long one batch of
   socket bytes takes to flow through the reader and analyzer.  Fed
   from the loop's injected clock, so tests stepping that clock see
   deterministic observations. *)
let verdict_latency = M.histogram "serve.verdict_latency_us"

type config = {
  spec : Pastltl.Formula.t;
  spec_fp : string;
  engines : Predict.Engine.kind list;
  max_buffered : int option;
  jobs : int;
  recovery : Jmpax.Config.recovery;
  checkpoint_dir : string option;
  checkpoint_every : int;
  budget : Jmpax.Budget.limits;
  on_overload : Jmpax.Budget.policy;
  now : unit -> float;
}

type state = Handshaking | Streaming | Disconnected | Done | Failed

type outcome =
  | Continue
  | Hello of { id : string; fp : string; rest : string }
  | Finished

(* What [stats] and [health] print of a finished session, frozen when
   it releases its driver (reader and engines). *)
type final = {
  f_events : int;
  f_skipped : int;
  f_checkpoints : int;
  f_level : int;
  f_buffered : int;
  f_cuts : int;
  f_causal : int;
  f_degraded : Predict.Engines.degraded option;
  f_lag : int;
}

let no_final =
  { f_events = 0; f_skipped = 0; f_checkpoints = 0; f_level = 0; f_buffered = 0;
    f_cuts = 0; f_causal = 0; f_degraded = None; f_lag = 0 }

type t = {
  cfg : config;
  mutable s_id : string;
  mutable s_fd : Unix.file_descr option;
  mutable s_state : state;
  hello : Buffer.t;
  mutable driver : Driver.t option;  (** from the handshake until released *)
  mutable final : final;  (** read while [driver] is [None] *)
  mutable discard : int;  (** replayed-prefix bytes still to drop *)
  mutable offset : int;  (** absolute stream offset fed to the reader *)
  mutable s_violated : bool option;
  mutable s_code : int;
  mutable s_reason : string;
  s_created : float;
  mutable s_last_activity : float;
}

let hello_magic = "jmpax-serve 1"
let hello_limit = 256

let valid_id s =
  let n = String.length s in
  n >= 1 && n <= 64
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '.' | '_' | '-' -> true
         | _ -> false)
       s

let create cfg fd =
  let now = cfg.now () in
  { cfg;
    s_id = "";
    s_fd = Some fd;
    s_state = Handshaking;
    hello = Buffer.create 64;
    driver = None;
    final = no_final;
    discard = 0;
    offset = 0;
    s_violated = None;
    s_code = 0;
    s_reason = "";
    s_created = now;
    s_last_activity = now }

let id t = t.s_id
let state t = t.s_state
let connected t = t.s_fd <> None
let fd t = t.s_fd
let last_activity t = t.s_last_activity
let created_at t = t.s_created
let violated t = t.s_violated
let exit_code t = t.s_code
let fail_reason t = t.s_reason

let events t = match t.driver with Some d -> Driver.events d | None -> t.final.f_events
(* The reader's count, which a checkpoint carries across a resume:
   what [jmpax stream] reports as frames skipped. *)
let skipped t =
  match t.driver with
  | Some d -> (Wire.Reader.stats (Driver.reader d)).Wire.Reader.skipped_frames
  | None -> t.final.f_skipped

let checkpoints t =
  match t.driver with Some d -> Driver.checkpoints d | None -> t.final.f_checkpoints

(* The engine figures: the frozen ones before the header frame too. *)
let from_bundle t f ~final =
  match Option.bind t.driver Driver.bundle with Some b -> f b | None -> final

(* With the lattice engine this is the lattice level; for a race/
   atomicity-only session it is the message count — either way a
   monotone progress measure ({!Predict.Engines.ticks}). *)
let level t = from_bundle t Predict.Engines.ticks ~final:t.final.f_level
let buffered t = from_bundle t Predict.Engines.out_of_order ~final:t.final.f_buffered

(* Budget accounting, all O(1) reads of maintained counters. *)

let frontier_cuts t = from_bundle t Predict.Engines.frontier_cuts ~final:t.final.f_cuts
let causal_buffered t = from_bundle t Predict.Engines.causal_buffered ~final:t.final.f_causal
let mem_words t = from_bundle t Predict.Engines.mem_words ~final:0
let degraded t = from_bundle t Predict.Engines.degraded ~final:t.final.f_degraded

(* Bytes received but not yet turned into events: the session's lag. *)
let lag t =
  match t.driver with
  | Some d -> Wire.Reader.pending_bytes (Driver.reader d)
  | None -> t.final.f_lag

(* A finished session keeps only what [stats] and [health] print:
   nothing reads its reader or engines again (drain and the idle sweep
   skip [Done] and [Failed], and only a [Disconnected] session resumes
   from memory), so they go now rather than at the idle sweep, and the
   memory budget counts live sessions only. *)
let release t =
  t.final <-
    { f_events = events t;
      f_skipped = skipped t;
      f_checkpoints = checkpoints t;
      f_level = level t;
      f_buffered = buffered t;
      f_cuts = frontier_cuts t;
      f_causal = causal_buffered t;
      f_degraded = degraded t;
      f_lag = lag t };
  t.driver <- None

let close t =
  match t.s_fd with
  | None -> ()
  | Some fd ->
      t.s_fd <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())

(* Best-effort bounded write of a short control line (ack, verdict,
   reject).  The fd is non-blocking; a full send buffer gets a short
   select grace, then the peer is treated as gone.  Lines are tiny, so
   in practice this never waits. *)
let write_line t line =
  match t.s_fd with
  | None -> false
  | Some fd ->
      let data = Bytes.of_string line in
      let len = Bytes.length data in
      let rec go pos tries =
        if pos >= len then true
        else if tries <= 0 then false
        else
          match Unix.write fd data pos (len - pos) with
          | n -> go (pos + n) tries
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos tries
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
              match Unix.select [] [ fd ] [] 1.0 with
              | _, [ _ ], _ -> go pos (tries - 1)
              | _ -> false
              | exception Unix.Unix_error (Unix.EINTR, _, _) ->
                  go pos (tries - 1))
          | exception Unix.Unix_error _ -> false
      in
      go 0 8

let checkpoint_path cfg sid =
  match cfg.checkpoint_dir with
  | None -> None
  | Some dir -> Some (Filename.concat dir (sid ^ ".ckpt"))

(* The session's terminal transitions. *)

(* A connection refused before it streamed: nothing to release. *)
let refuse t ?reply code reason =
  Option.iter (fun line -> ignore (write_line t line)) reply;
  close t;
  t.s_state <- Failed;
  t.s_code <- code;
  t.s_reason <- reason;
  Finished

let finish_failed t code reason =
  t.s_state <- Failed;
  t.s_code <- code;
  t.s_reason <- reason;
  release t;
  ignore (write_line t (Printf.sprintf "error %s\n" reason));
  close t;
  if M.enabled () then M.incr m_session_failures;
  L.warn ~sid:t.s_id ~event:"session_failed"
    ~fields:[ ("code", string_of_int code) ]
    reason;
  Finished

let finish_done t b incomplete =
  let violated_ = Predict.Engines.violated b in
  t.s_violated <- Some violated_;
  t.s_state <- Done;
  (* One canonical verdict line per selected engine, byte-identical to
     the standalone front ends; the lattice line last, when present. *)
  let engine_lines = Predict.Engines.verdict_lines b in
  let lines =
    Driver.verdict_lines ~engines:engine_lines ~degraded:(Predict.Engines.degraded b)
      ~lattice:(Option.map Predict.Online.violated (Predict.Engines.online b))
  in
  release t;
  ignore (write_line t (String.concat "" (List.map (fun l -> l ^ "\n") lines)));
  close t;
  if M.enabled () then begin
    M.incr m_verdicts;
    if violated_ then M.incr m_violations
  end;
  List.iter
    (fun (name, line) ->
      L.info ~sid:t.s_id ~event:"engine_verdict"
        ~fields:[ ("engine", name) ]
        line)
    engine_lines;
  L.info ~sid:t.s_id ~event:"verdict"
    ~fields:
      (("verdict", if violated_ then "violation" else "ok")
      :: ("events", string_of_int (events t))
      ::
      (* The verdict covers only the received prefix. *)
      (match incomplete with
      | Some (tid, next) -> [ ("incomplete", Printf.sprintf "%d:%d" tid next) ]
      | None -> []))
    "session complete";
  Finished

(* {1 Checkpointing} *)

(* Taken with the reader drained to [Await], or right after an item:
   [consumed] then points at the first byte the reader has not turned
   into an event — a position a replaying writer can be fast-forwarded
   to. *)
let write_checkpoint t =
  match t.driver with
  | None -> Ok ()
  | Some d -> (
      match Driver.write_checkpoint d with
      | Ok written ->
          if written && M.enabled () then M.incr m_checkpoints;
          Ok ()
      | Error e -> Error e)

let mark_drain_failed t reason =
  t.s_state <- Failed;
  t.s_code <- 6;
  t.s_reason <- reason;
  release t;
  if M.enabled () then M.incr m_session_failures

(* {1 The streaming pump} *)

(* Checkpoint-then-drop: only the offender pays, and its resumable
   state survives on disk (when a checkpoint_dir is configured) so a
   later reconnect can pick it back up. *)
let finish_evicted t reason =
  (match write_checkpoint t with
  | Ok () -> ()
  | Error e ->
      L.warn ~sid:t.s_id ~event:"evict_checkpoint_failed" e);
  if M.enabled () then M.incr m_budget_evictions;
  L.warn ~sid:t.s_id ~event:"evict" ~fields:[ ("class", "budget") ] reason;
  finish_failed t 8 ("budget: " ^ reason)

(* Drain every decodable event out of the reader, then (at [Await])
   take a periodic checkpoint if the lattice advanced far enough.  The
   loop's read budget bounds how many bytes one pump can cover, so a
   firehose session cannot monopolize the daemon from in here.  In a
   multi-tenant daemon a budget breach must not take the daemon down:
   [Degrade] relieves it in place, [Evict] evicts the offender and
   [Fail] fails only the offending session (exit class 8), never its
   neighbours. *)
let rec pump t d =
  match Driver.next d with
  | Driver.Continue -> pump t d
  | Driver.Degraded ->
      if M.enabled () then M.incr m_degrades;
      pump t d
  | Driver.Await ->
      if Driver.checkpoint_due d then
        match write_checkpoint t with
        | Ok () -> Continue
        | Error reason ->
            (* Mirrors the stream path: silently continuing without the
               crash safety the operator asked for would defeat it — but
               only this session pays. *)
            finish_failed t 6 ("checkpoint: " ^ reason)
      else Continue
  | Driver.Ended -> (
      match Driver.complete d with
      | Ok (b, incomplete) -> finish_done t b incomplete
      | Error e -> finish_failed t 3 (Wire.Error.to_string e))
  | Driver.Failed e ->
      finish_failed t
        (match e with Wire.Error.Backpressure _ -> 4 | _ -> 3)
        (Wire.Error.to_string e)
  | Driver.Breach breach -> (
      let reason = Jmpax.Budget.breach_message breach in
      match t.cfg.on_overload with
      | Jmpax.Budget.Fail -> finish_failed t 8 ("budget: " ^ reason)
      | Jmpax.Budget.Degrade | Jmpax.Budget.Evict -> finish_evicted t reason)

let stream_bytes t data =
  (* Drop the replayed prefix of a resumed session first. *)
  let data =
    if t.discard = 0 then data
    else begin
      let n = min t.discard (String.length data) in
      t.discard <- t.discard - n;
      String.sub data n (String.length data - n)
    end
  in
  if String.length data = 0 then Continue
  else
    match t.driver with
    | None -> finish_failed t 3 "internal: no reader"
    | Some d ->
        Wire.Reader.feed (Driver.reader d) data;
        t.offset <- t.offset + String.length data;
        pump t d

let on_bytes t data =
  t.s_last_activity <- t.cfg.now ();
  match t.s_state with
  | Streaming ->
      if M.enabled () then begin
        let t0 = t.cfg.now () in
        let outcome = stream_bytes t data in
        M.observe verdict_latency
          (int_of_float ((t.cfg.now () -. t0) *. 1e6));
        outcome
      end
      else stream_bytes t data
  | Handshaking ->
      if Buffer.length t.hello + String.length data > hello_limit then
        refuse t ~reply:"reject hello line too long\n" 3 "hello line too long"
      else begin
        Buffer.add_string t.hello data;
        let text = Buffer.contents t.hello in
        match String.index_opt text '\n' with
        | None -> Continue
        | Some nl -> (
            let line = String.sub text 0 nl in
            let line =
              if String.length line > 0 && line.[String.length line - 1] = '\r'
              then String.sub line 0 (String.length line - 1)
              else line
            in
            let rest = String.sub text (nl + 1) (String.length text - nl - 1) in
            match String.split_on_char ' ' line with
            | [ "jmpax-serve"; "1"; sid; fp ] -> Hello { id = sid; fp; rest }
            | _ ->
                refuse t
                  ~reply:
                    (Printf.sprintf "reject bad hello (expected %S)\n"
                       (hello_magic ^ " <id> <spec-fp>"))
                  3 "bad hello")
      end
  | Disconnected | Done | Failed -> Continue

let on_eof t =
  match t.s_state with
  | Streaming ->
      (* The writer vanished mid-stream.  Keep the reader and analyzer
         live: a reconnect with the same id resumes exactly here, and a
         drain can still checkpoint the state to disk. *)
      close t;
      t.s_state <- Disconnected;
      Continue
  | Handshaking -> refuse t 3 "closed during handshake"
  | Disconnected | Done | Failed ->
      close t;
      Continue

(* {1 Handshake completions} *)

(* Serve has no quarantine sink: [Quarantine] counts like [Skip]. *)
let driver cfg ~id ?resume () =
  Driver.create ~sid:id ?max_buffered:cfg.max_buffered
    ?checkpoint:
      (Option.map (fun path -> (path, cfg.checkpoint_every)) (checkpoint_path cfg id))
    ?resume
    ~recovery:
      (match cfg.recovery with
      | Jmpax.Config.Quarantine -> Jmpax.Config.Skip
      | r -> r)
    ~kinds:cfg.engines ~budget:cfg.budget ~on_overload:cfg.on_overload ~spec:cfg.spec ()

let start_fresh t ~id ~rest =
  t.s_id <- id;
  t.driver <- Some (driver t.cfg ~id ());
  t.s_state <- Streaming;
  if write_line t "ok 0\n" then stream_bytes t rest
  else on_eof t

let start_resume_checkpoint t ~id ~ck ~rest =
  let d = driver t.cfg ~id ~resume:ck () in
  let position = ck.Jmpax.Checkpoint.ck_position in
  t.s_id <- id;
  t.driver <- Some d;
  t.discard <- position;
  t.offset <- position;
  t.s_state <- Streaming;
  if write_line t (Printf.sprintf "ok %d\n" position) then stream_bytes t rest
  else on_eof t

let adopt t ~from ~rest =
  (match from.s_fd with
  | Some fd ->
      t.s_fd <- Some fd;
      from.s_fd <- None
  | None -> ());
  t.s_state <- Streaming;
  t.discard <- t.offset;
  t.s_last_activity <- t.cfg.now ();
  if write_line t (Printf.sprintf "ok %d\n" t.offset) then stream_bytes t rest
  else on_eof t

let reject t reason =
  ignore (refuse t ~reply:(Printf.sprintf "reject %s\n" reason) 2 reason);
  L.warn ?sid:(if t.s_id = "" then None else Some t.s_id) ~event:"reject" reason

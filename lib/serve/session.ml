module M = Telemetry.Metrics
module L = Telemetry.Log
module Wire = Jmpax.Wire
module Checkpoint = Jmpax.Checkpoint

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
   it releases its reader and engines. *)
type final = {
  f_level : int;
  f_buffered : int;
  f_cuts : int;
  f_causal : int;
  f_degraded : Predict.Engines.degraded option;
  f_lag : int;
}

let no_final =
  { f_level = 0; f_buffered = 0; f_cuts = 0; f_causal = 0; f_degraded = None; f_lag = 0 }

type t = {
  cfg : config;
  mutable s_id : string;
  mutable s_fd : Unix.file_descr option;
  mutable s_state : state;
  hello : Buffer.t;
  mutable reader : Wire.Reader.t option;
  mutable bundle : Predict.Engines.t option;
  mutable final : final;  (** read while [bundle] is [None] *)
  mutable discard : int;  (** replayed-prefix bytes still to drop *)
  mutable offset : int;  (** absolute stream offset fed to the reader *)
  mutable s_events : int;
  mutable s_ends : int;
  mutable s_skipped : int;
  mutable peak_buffered : int;
  mutable s_checkpoints : int;
  mutable last_ck_ticks : int;
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
    reader = None;
    bundle = None;
    final = no_final;
    discard = 0;
    offset = 0;
    s_events = 0;
    s_ends = 0;
    s_skipped = 0;
    peak_buffered = 0;
    s_checkpoints = 0;
    last_ck_ticks = 0;
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
let events t = t.s_events
let skipped t = t.s_skipped
let checkpoints t = t.s_checkpoints
let violated t = t.s_violated
let exit_code t = t.s_code
let fail_reason t = t.s_reason

(* With the lattice engine this is the lattice level; for a race/
   atomicity-only session it is the message count — either way a
   monotone progress measure ({!Predict.Engines.ticks}). *)
let level t =
  match t.bundle with Some b -> Predict.Engines.ticks b | None -> t.final.f_level

let buffered t =
  match t.bundle with
  | Some b -> Predict.Engines.out_of_order b
  | None -> t.final.f_buffered

(* Budget accounting, all O(1) reads of maintained counters. *)

let frontier_cuts t =
  match t.bundle with
  | Some b -> Predict.Engines.frontier_cuts b
  | None -> t.final.f_cuts

let causal_buffered t =
  match t.bundle with
  | Some b -> Predict.Engines.causal_buffered b
  | None -> t.final.f_causal

let mem_words t =
  match t.bundle with Some b -> Predict.Engines.mem_words b | None -> 0

let degraded t =
  match t.bundle with Some b -> Predict.Engines.degraded b | None -> t.final.f_degraded

(* Bytes received but not yet turned into events: the session's lag. *)
let lag t =
  match t.reader with Some r -> Wire.Reader.pending_bytes r | None -> t.final.f_lag

(* A finished session keeps only what [stats] and [health] print:
   nothing reads its reader or engines again (drain and the idle sweep
   skip [Done] and [Failed], and only a [Disconnected] session resumes
   from memory), so they go now rather than at the idle sweep, and the
   memory budget counts live sessions only. *)
let release t =
  t.final <-
    { f_level = level t;
      f_buffered = buffered t;
      f_cuts = frontier_cuts t;
      f_causal = causal_buffered t;
      f_degraded = degraded t;
      f_lag = lag t };
  t.reader <- None;
  t.bundle <- None

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

let finish_done t b =
  let violated_ = Predict.Engines.violated b in
  t.s_violated <- Some violated_;
  t.s_state <- Done;
  (* One canonical verdict line per selected engine, byte-identical to
     the standalone front ends; the lattice line last, when present. *)
  let engine_lines = Predict.Engines.verdict_lines b in
  let lines =
    List.map snd engine_lines
    @
    (* A degraded session's marker line stands where the lattice verdict
       would have: reduced coverage is never presented as a full
       verdict. *)
    match (Predict.Engines.degraded b, Predict.Engines.online b) with
    | Some d, _ -> [ Jmpax.Pipeline.degraded_verdict_line d ]
    | None, Some o ->
        [ Jmpax.Pipeline.verdict_line (Predict.Online.violated o) ]
    | None, None -> []
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
      [ ("verdict", if violated_ then "violation" else "ok");
        ("events", string_of_int t.s_events) ]
    "session complete";
  Finished

(* {1 Checkpointing} *)

(* Taken with the reader drained to [Await]: [consumed] then points at
   the first byte the reader has not turned into an event — a position a
   replaying writer can be fast-forwarded to. *)
let write_checkpoint t =
  match (checkpoint_path t.cfg t.s_id, t.reader, t.bundle) with
  | None, _, _ | _, None, _ | _, _, None -> Ok ()
  | Some path, Some reader, Some bundle -> (
      match Wire.Reader.header reader with
      | None -> Ok ()
      | Some header -> (
          let ck =
            { Checkpoint.ck_header = header;
              ck_spec_fp = t.cfg.spec_fp;
              ck_position = Wire.Reader.consumed reader;
              ck_next_eid = Wire.Reader.next_eid reader;
              ck_reader_stats = Wire.Reader.stats reader;
              ck_reader_ended = Wire.Reader.ended_threads reader;
              ck_v3 = Wire.Reader.v3_state reader;
              ck_ends = t.s_ends;
              ck_quarantined = 0;
              ck_peak_buffered = t.peak_buffered;
              ck_engines = Predict.Engines.snapshots bundle;
              ck_online =
                Option.map Predict.Online.snapshot
                  (Predict.Engines.online bundle);
              ck_degraded = Predict.Engines.degraded bundle }
          in
          match Checkpoint.write path ck with
          | Ok () ->
              t.s_checkpoints <- t.s_checkpoints + 1;
              t.last_ck_ticks <- Predict.Engines.ticks bundle;
              if M.enabled () then M.incr m_checkpoints;
              L.info ~sid:t.s_id ~event:"checkpoint"
                ~fields:
                  [ ("position", string_of_int ck.Checkpoint.ck_position);
                    ("ticks", string_of_int t.last_ck_ticks) ]
                "";
              Ok ()
          | Error e -> Error (Checkpoint.error_to_string e)))

let mark_drain_failed t reason =
  t.s_state <- Failed;
  t.s_code <- 6;
  t.s_reason <- reason;
  release t;
  if M.enabled () then M.incr m_session_failures

(* {1 The streaming pump} *)

let logically_ended reader =
  Wire.Reader.pending_bytes reader = 0
  &&
  match Wire.Reader.header reader with
  | Some h ->
      let ended = Wire.Reader.ended_threads reader in
      Array.length ended = h.Wire.nthreads && Array.for_all Fun.id ended
  | None -> false

let complete t =
  match t.bundle with
  | None -> finish_failed t 3 "stream ended before the header frame"
  | Some b -> (
      match Predict.Engines.missing b with
      | Some (tid, next) when t.cfg.recovery = Jmpax.Config.Fail ->
          finish_failed t 3
            (Printf.sprintf "thread %d never delivered message %d" tid next)
      | missing ->
          (* Under skip/quarantine a gap is one more recoverable loss:
             the verdict covers the prefix that did arrive. *)
          (match missing with
          | None -> (
              match Predict.Engines.finish b with
              | () -> ()
              | exception Invalid_argument _ -> ())
          | Some _ -> ());
          finish_done t b)

let feed_message t b m =
  match Predict.Engines.feed b m with
  | () ->
      t.s_events <- t.s_events + 1;
      t.peak_buffered <- Int.max t.peak_buffered (Predict.Engines.out_of_order b);
      Ok ()
  | exception Predict.Online.Backpressure { buffered; limit } ->
      Error
        (`Fatal
          ( 4,
            Printf.sprintf
              "backpressure: %d messages buffered out of order (limit %d)"
              buffered limit ))
  | exception Predict.Causal.Causal_buffer_overflow { buffered; limit } ->
      (* The budget cap on the linear engines' delivery buffer: routed
         through the overload policy, not the hard backpressure class. *)
      Error (`Breach (Jmpax.Budget.Causal_buffered { buffered; limit }))
  | exception Invalid_argument _ ->
      (* A well-formed frame carrying a (thread, index) pair already
         consumed: an input defect, so the recovery policy applies. *)
      Error
        (`Skip
          (Wire.Error.Duplicate_message
             { tid = m.Trace.Message.tid; index = Trace.Message.seq m }))

let on_skip t error =
  match t.cfg.recovery with
  | Jmpax.Config.Fail -> Error (3, Wire.Error.to_string error)
  | Jmpax.Config.Skip | Jmpax.Config.Quarantine ->
      t.s_skipped <- t.s_skipped + 1;
      Ok ()

(* {1 Budget enforcement} *)

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

(* In a multi-tenant daemon a breach degradation cannot relieve still
   must not take the daemon down, so under [Degrade] it falls back to
   evicting the offender; [Fail] fails only the offending session
   (exit class 8), never its neighbours. *)
let apply_breach t b breach =
  match t.cfg.on_overload with
  | Jmpax.Budget.Degrade
    when Jmpax.Budget.degradable breach && Predict.Engines.online b <> None ->
      let reason = Jmpax.Budget.breach_reason breach in
      Predict.Engines.degrade b ~reason;
      if M.enabled () then M.incr m_degrades;
      L.warn ~sid:t.s_id ~event:"degrade"
        ~fields:
          [ ("reason", reason); ("at_event", string_of_int t.s_events) ]
        (Jmpax.Budget.breach_message breach);
      `Continue
  | Jmpax.Budget.Fail -> `Fail (Jmpax.Budget.breach_message breach)
  | Jmpax.Budget.Degrade | Jmpax.Budget.Evict ->
      `Evict (Jmpax.Budget.breach_message breach)

let budget_step t b =
  if Jmpax.Budget.is_unlimited t.cfg.budget then `Continue
  else begin
    let u = Jmpax.Budget.usage b in
    Jmpax.Budget.observe u;
    match Jmpax.Budget.check t.cfg.budget u with
    | None -> `Continue
    | Some breach -> apply_breach t b breach
  end

(* Drain every decodable event out of the reader, then (at [Await])
   take a periodic checkpoint if the lattice advanced far enough.  The
   loop's read budget bounds how many bytes one pump can cover, so a
   firehose session cannot monopolize the daemon from in here. *)
let rec pump t reader =
  match Wire.Reader.next reader with
  | Wire.Reader.Item (Wire.Reader.Header h) ->
      t.bundle <-
        Some
          (Predict.Engines.create ?max_buffered:t.cfg.max_buffered
             ?overflow_limit:t.cfg.budget.Jmpax.Budget.max_causal_buffered
             ~kinds:t.cfg.engines ~nthreads:h.Wire.nthreads ~init:h.Wire.init
             ~spec:(Some t.cfg.spec) ());
      pump t reader
  | Wire.Reader.Item (Wire.Reader.Msg m) -> (
      match t.bundle with
      | None -> finish_failed t 3 "message frame before the header frame"
      | Some b -> (
          match feed_message t b m with
          | Ok () -> (
              match budget_step t b with
              | `Continue -> pump t reader
              | `Fail reason -> finish_failed t 8 ("budget: " ^ reason)
              | `Evict reason -> finish_evicted t reason)
          | Error (`Fatal (code, reason)) -> finish_failed t code reason
          | Error (`Breach breach) -> (
              match apply_breach t b breach with
              | `Continue -> pump t reader
              | `Fail reason -> finish_failed t 8 ("budget: " ^ reason)
              | `Evict reason -> finish_evicted t reason)
          | Error (`Skip error) -> (
              match on_skip t error with
              | Ok () -> pump t reader
              | Error (code, reason) -> finish_failed t code reason)))
  | Wire.Reader.Item (Wire.Reader.End_of_thread tid) -> (
      t.s_ends <- t.s_ends + 1;
      Option.iter (fun b -> Predict.Engines.end_of_thread b tid) t.bundle;
      match t.bundle with
      | Some b -> (
          match budget_step t b with
          | `Continue -> pump t reader
          | `Fail reason -> finish_failed t 8 ("budget: " ^ reason)
          | `Evict reason -> finish_evicted t reason)
      | None -> pump t reader)
  | Wire.Reader.Skip { error; bytes = _ } -> (
      match on_skip t error with
      | Ok () -> pump t reader
      | Error (code, reason) -> finish_failed t code reason)
  | Wire.Reader.Await ->
      if logically_ended reader then complete t
      else begin
        match (t.bundle, t.cfg.checkpoint_dir) with
        | Some b, Some _
          when Predict.Engines.ticks b - t.last_ck_ticks
               >= t.cfg.checkpoint_every -> (
            match write_checkpoint t with
            | Ok () -> Continue
            | Error reason ->
                (* Mirrors the stream path: silently continuing without
                   the crash safety the operator asked for would defeat
                   it — but only this session pays. *)
                finish_failed t 6 ("checkpoint: " ^ reason))
        | _ -> Continue
      end
  | Wire.Reader.Eof -> complete t

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
    match t.reader with
    | None -> finish_failed t 3 "internal: no reader"
    | Some reader ->
        Wire.Reader.feed reader data;
        t.offset <- t.offset + String.length data;
        pump t reader

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
      if Buffer.length t.hello + String.length data > hello_limit then begin
        ignore (write_line t "reject hello line too long\n");
        close t;
        t.s_state <- Failed;
        t.s_code <- 3;
        t.s_reason <- "hello line too long";
        Finished
      end
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
                ignore
                  (write_line t
                     (Printf.sprintf "reject bad hello (expected %S)\n"
                        (hello_magic ^ " <id> <spec-fp>")));
                close t;
                t.s_state <- Failed;
                t.s_code <- 3;
                t.s_reason <- "bad hello";
                Finished)
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
  | Handshaking ->
      close t;
      t.s_state <- Failed;
      t.s_code <- 3;
      t.s_reason <- "closed during handshake";
      Finished
  | Disconnected | Done | Failed ->
      close t;
      Continue

(* {1 Handshake completions} *)

let start_fresh t ~id ~rest =
  t.s_id <- id;
  t.reader <- Some (Wire.Reader.create ());
  t.s_state <- Streaming;
  if write_line t "ok 0\n" then stream_bytes t rest
  else on_eof t

let start_resume_checkpoint t ~id ~ck ~rest =
  let bundle =
    Predict.Engines.restore ?max_buffered:t.cfg.max_buffered
      ?overflow_limit:t.cfg.budget.Jmpax.Budget.max_causal_buffered
      ?degraded:ck.Checkpoint.ck_degraded
      ~kinds:t.cfg.engines ~nthreads:ck.Checkpoint.ck_header.Wire.nthreads
      ~init:ck.Checkpoint.ck_header.Wire.init ~spec:(Some t.cfg.spec)
      ~online_snapshot:ck.Checkpoint.ck_online
      ~blocks:ck.Checkpoint.ck_engines
      ~events:ck.Checkpoint.ck_reader_stats.Wire.Reader.messages ()
  in
  let reader = Checkpoint.reader ck in
  t.s_id <- id;
  t.reader <- Some reader;
  t.bundle <- Some bundle;
  t.discard <- ck.Checkpoint.ck_position;
  t.offset <- ck.Checkpoint.ck_position;
  t.s_ends <- ck.Checkpoint.ck_ends;
  t.s_events <- ck.Checkpoint.ck_reader_stats.Wire.Reader.messages;
  t.peak_buffered <- ck.Checkpoint.ck_peak_buffered;
  t.last_ck_ticks <- Predict.Engines.ticks bundle;
  t.s_state <- Streaming;
  if write_line t (Printf.sprintf "ok %d\n" ck.Checkpoint.ck_position) then
    stream_bytes t rest
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
  ignore (write_line t (Printf.sprintf "reject %s\n" reason));
  close t;
  t.s_state <- Failed;
  t.s_code <- 2;
  t.s_reason <- reason;
  L.warn ?sid:(if t.s_id = "" then None else Some t.s_id) ~event:"reject" reason

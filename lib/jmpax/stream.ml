open Trace
module M = Telemetry.Metrics

let ( let* ) = Result.bind

let m_frames = M.counter "stream.frames"
let m_messages = M.counter "stream.messages"
let m_skipped_frames = M.counter "stream.skipped_frames"
let m_resyncs = M.counter "stream.resyncs"
let m_skipped_bytes = M.counter "stream.skipped_bytes"
let m_quarantined_bytes = M.counter "stream.quarantined_bytes"
let m_max_buffered = M.gauge "stream.max_buffered"
let m_peak_buffered = M.gauge "stream.peak_buffered"

type stats = {
  frames : int;
  messages : int;
  ends : int;
  skipped_frames : int;
  resyncs : int;
  skipped_bytes : int;
  quarantined_bytes : int;
  peak_buffered : int;
  checkpoints : int;
  incomplete : (Types.tid * int) option;
}

type outcome = {
  s_header : Wire.header;
  s_violated : bool;
  s_lattice : bool;
  s_violations : Predict.Analyzer.violation list;
  s_level : int;
  s_gc : Predict.Online.gc_stats;
  s_engines : (string * string) list;
  s_degraded : Predict.Engines.degraded option;
  s_stats : stats;
}

let default_chunk_size = 64 * 1024

let no_gc =
  { Predict.Online.retired_cuts = 0;
    peak_frontier_cuts = 0;
    peak_frontier_entries = 0;
    monitor_steps = 0 }

(* The driver: pull chunks from [read], push them through an incremental
   [Wire.Reader], and feed each decoded message to the selected engine
   bundle.  Malformed input surfaces as [Skip] events the [recovery]
   policy decides about; only backpressure (a resource bound, not an
   input defect) and a failing checkpoint write are unconditionally
   fatal. *)
let run ?(chunk_size = default_chunk_size) ?max_frame ?max_buffered
    ?(recovery = Config.Fail) ?quarantine ?checkpoint
    ?resume ?(engines = Predict.Engine.default_kinds)
    ?(budget = Budget.unlimited) ?(on_overload = Budget.Fail) ~spec ~read () =
  if chunk_size <= 0 then invalid_arg "Stream.run: chunk_size must be positive";
  (match checkpoint with
  | Some (_, every) when every < 1 ->
      invalid_arg "Stream.run: checkpoint interval must be >= 1"
  | _ -> ());
  if engines = [] then invalid_arg "Stream.run: no engine selected";
  let overflow_limit = budget.Budget.max_causal_buffered in
  let* reader, bundle0, ends0, quarantined0, peak0 =
    match resume with
    | None -> Ok (Wire.Reader.create ?max_frame (), None, 0, 0, 0)
    | Some ck -> (
        match
          let b =
            Predict.Engines.restore ?max_buffered ?overflow_limit
              ?degraded:ck.Checkpoint.ck_degraded ~kinds:engines
              ~nthreads:ck.Checkpoint.ck_header.Wire.nthreads
              ~init:ck.Checkpoint.ck_header.Wire.init ~spec:(Some spec)
              ~online_snapshot:ck.Checkpoint.ck_online
              ~blocks:ck.Checkpoint.ck_engines
              ~events:ck.Checkpoint.ck_reader_stats.Wire.Reader.messages ()
          in
          (Checkpoint.reader ?max_frame ck, b)
        with
        | reader, b ->
            Ok
              ( reader,
                Some b,
                ck.Checkpoint.ck_ends,
                ck.Checkpoint.ck_quarantined,
                ck.Checkpoint.ck_peak_buffered )
        | exception Invalid_argument msg -> Error (Wire.Error.Checkpoint msg))
  in
  let buf = Bytes.create chunk_size in
  let bundle = ref bundle0 in
  let ends = ref ends0 in
  let quarantined = ref quarantined0 in
  let peak = ref peak0 in
  let checkpoints = ref 0 in
  let spec_fp = lazy (Checkpoint.fingerprint spec) in
  let last_ck_ticks =
    ref (match !bundle with Some b -> Predict.Engines.ticks b | None -> 0)
  in
  (match (max_buffered, M.enabled ()) with
  | Some limit, true -> M.set m_max_buffered limit
  | _ -> ());
  (* A checkpoint is taken right after a decoded item was consumed: the
     reader's garbage buffer is empty there, so [consumed] is a clean
     frame boundary a resumed transport can seek to.  The cadence clock
     is the lattice level when the lattice engine runs, otherwise the
     message count ({!Predict.Engines.ticks}). *)
  let write_ck path b =
    let header =
      match Wire.Reader.header reader with
      | Some h -> h
      | None -> assert false
    in
    let ck =
      { Checkpoint.ck_header = header;
        ck_spec_fp = Lazy.force spec_fp;
        ck_position = Wire.Reader.consumed reader;
        ck_next_eid = Wire.Reader.next_eid reader;
        ck_reader_stats = Wire.Reader.stats reader;
        ck_reader_ended = Wire.Reader.ended_threads reader;
        ck_v3 = Wire.Reader.v3_state reader;
        ck_ends = !ends;
        ck_quarantined = !quarantined;
        ck_peak_buffered = !peak;
        ck_engines = Predict.Engines.snapshots b;
        ck_online =
          Option.map Predict.Online.snapshot (Predict.Engines.online b);
        ck_degraded = Predict.Engines.degraded b }
    in
    match Checkpoint.write path ck with
    | Ok () ->
        last_ck_ticks := Predict.Engines.ticks b;
        incr checkpoints;
        Telemetry.Log.info ~event:"checkpoint"
          ~fields:
            [ ("path", path);
              ("position", string_of_int ck.Checkpoint.ck_position);
              ("ticks", string_of_int !last_ck_ticks) ]
          "";
        Ok ()
    | Error e -> Error (Wire.Error.Checkpoint (Checkpoint.error_to_string e))
  in
  let maybe_checkpoint () =
    match (checkpoint, !bundle) with
    | Some (path, every), Some b
      when Predict.Engines.ticks b - !last_ck_ticks >= every -> write_ck path b
    | _ -> Ok ()
  in
  (* Budget policy routing.  [Degrade] relieves a frontier breach by
     swapping the lattice engine for the linear-time ones at the current
     (clean) causal boundary; any breach degradation cannot relieve —
     and every breach under [Evict]/[Fail] — stops the stream with
     {!Budget.Exceeded}, after persisting a final checkpoint under
     [Evict] so the state survives the drop. *)
  let apply_breach b breach =
    match on_overload with
    | Budget.Degrade
      when Budget.degradable breach && Predict.Engines.online b <> None ->
        let reason = Budget.breach_reason breach in
        Predict.Engines.degrade b ~reason;
        Telemetry.Log.warn ~event:"degrade"
          ~fields:
            [ ("reason", reason);
              ("at_event", string_of_int (Predict.Engines.ticks b));
              ("detail", Budget.breach_message breach) ]
          "";
        Ok ()
    | Budget.Evict ->
        let* () =
          match checkpoint with
          | Some (path, _) -> write_ck path b
          | None -> Ok ()
        in
        raise (Budget.Exceeded breach)
    | Budget.Degrade | Budget.Fail -> raise (Budget.Exceeded breach)
  in
  let enforce_budget () =
    match !bundle with
    | Some b when not (Budget.is_unlimited budget) -> (
        let u = Budget.usage b in
        Budget.observe u;
        match Budget.check budget u with
        | None -> Ok ()
        | Some breach -> apply_breach b breach)
    | _ -> Ok ()
  in
  (* The first thread that lost a delta frame to a poisoned baseline:
     its messages are gone from there on, even when nothing buffered
     behind them shows the gap. *)
  let stale = ref None in
  let on_skip error bytes =
    (match error with
    | Wire.Error.Stale_delta_baseline { tid } when Option.is_none !stale ->
        stale := Some tid
    | _ -> ());
    match recovery with
    | Config.Fail -> Error error
    | Config.Skip -> Ok ()
    | Config.Quarantine ->
        quarantined := !quarantined + String.length bytes;
        (match quarantine with Some sink -> sink bytes | None -> ());
        Ok ()
  in
  let feed_message m =
    match !bundle with
    | None ->
        (* The reader only yields messages after a header frame. *)
        assert false
    | Some b -> (
        match Predict.Engines.feed b m with
        | () ->
            peak := Int.max !peak (Predict.Engines.out_of_order b);
            Ok ()
        | exception Predict.Online.Backpressure { buffered; limit } ->
            Error (Wire.Error.Backpressure { buffered; limit })
        | exception Predict.Causal.Causal_buffer_overflow { buffered; limit } ->
            (* The budget cap on the linear engines' delivery buffer:
               routed through the overload policy rather than the hard
               backpressure exit. *)
            apply_breach b (Budget.Causal_buffered { buffered; limit })
        | exception Invalid_argument _ ->
            (* A well-formed frame carrying a (thread, index) pair we
               already consumed: an input defect, so the recovery policy
               applies. *)
            on_skip
              (Wire.Error.Duplicate_message
                 { tid = m.Message.tid; index = Message.seq m })
              (Wire.encode_message m))
  in
  (* Every thread's end-of-stream frame has arrived and nothing is
     buffered: the stream is logically over, whatever the transport
     thinks.  Stopping here matters for reconnecting transports, which
     cannot tell a finished writer from a crashed one and would burn
     their whole retry budget at a clean end of stream. *)
  let logically_ended () =
    Wire.Reader.pending_bytes reader = 0
    &&
    match Wire.Reader.header reader with
    | Some h ->
        let ended = Wire.Reader.ended_threads reader in
        Array.length ended = h.Wire.nthreads && Array.for_all Fun.id ended
    | None -> false
  in
  let rec loop () =
    match Wire.Reader.next reader with
    | Wire.Reader.Await ->
        if logically_ended () then Wire.Reader.close reader
        else begin
          let n = read buf 0 chunk_size in
          if n = 0 then Wire.Reader.close reader
          else
            (* Zero-copy: the chunk is blitted from the transport buffer
               straight into the reader's parse buffer, no intermediate
               string. *)
            Wire.Reader.feed_bytes reader buf 0 n
        end;
        loop ()
    | Wire.Reader.Item (Wire.Reader.Header h) ->
        bundle :=
          Some
            (Predict.Engines.create ?max_buffered ?overflow_limit ~kinds:engines
               ~nthreads:h.Wire.nthreads ~init:h.Wire.init ~spec:(Some spec) ());
        loop ()
    | Wire.Reader.Item (Wire.Reader.Msg m) -> (
        (* Matches, not [let*]: a bind's continuation is a closure
           allocated per message. *)
        match feed_message m with
        | Ok () -> after_item ()
        | Error _ as e -> e)
    | Wire.Reader.Item (Wire.Reader.End_of_thread tid) ->
        incr ends;
        Option.iter (fun b -> Predict.Engines.end_of_thread b tid) !bundle;
        after_item ()
    | Wire.Reader.Skip { error; bytes } -> (
        match on_skip error bytes with Ok () -> loop () | Error _ as e -> e)
    | Wire.Reader.Eof -> Ok ()
  and after_item () =
    match enforce_budget () with
    | Ok () -> (
        match maybe_checkpoint () with Ok () -> loop () | Error _ as e -> e)
    | Error _ as e -> e
  in
  let* () = loop () in
  match !bundle with
  | None -> Error Wire.Error.Missing_header_frame
  | Some b ->
      let incomplete =
        match Predict.Engines.missing b with
        | Some _ as gap -> gap
        | None ->
            Option.map (fun tid -> (tid, Predict.Engines.next_index b tid)) !stale
      in
      let* () =
        match (incomplete, recovery) with
        | Some (tid, next), Config.Fail ->
            Error (Wire.Error.Missing_messages { tid; next })
        | _ ->
            (* Under skip/quarantine a gap is one more recoverable loss:
               analyze the prefix that did arrive. *)
            (match incomplete with
            | None -> Predict.Engines.finish b
            | Some _ ->
                (* [finish] would raise on the gap; every engine has
                   already consumed as much as its prefix allows. *)
                ());
            Ok ()
      in
      let r = Wire.Reader.stats reader in
      if M.enabled () then begin
        M.add m_frames r.Wire.Reader.frames;
        M.add m_messages r.Wire.Reader.messages;
        M.add m_skipped_frames r.Wire.Reader.skipped_frames;
        M.add m_resyncs r.Wire.Reader.resyncs;
        M.add m_skipped_bytes r.Wire.Reader.skipped_bytes;
        M.add m_quarantined_bytes !quarantined;
        M.set_max m_peak_buffered !peak
      end;
      let header =
        match Wire.Reader.header reader with Some h -> h | None -> assert false
      in
      let online = Predict.Engines.online b in
      Ok
        { s_header = header;
          s_violated = Predict.Engines.violated b;
          s_lattice = online <> None;
          s_violations =
            (match online with
            | Some o -> Predict.Online.violations o
            | None -> []);
          s_level =
            (match online with Some o -> Predict.Online.level o | None -> 0);
          s_gc =
            (match online with Some o -> Predict.Online.gc_stats o | None -> no_gc);
          s_engines = Predict.Engines.verdict_lines b;
          s_degraded = Predict.Engines.degraded b;
          s_stats =
            { frames = r.Wire.Reader.frames;
              messages = r.Wire.Reader.messages;
              ends = !ends;
              skipped_frames = r.Wire.Reader.skipped_frames;
              resyncs = r.Wire.Reader.resyncs;
              skipped_bytes = r.Wire.Reader.skipped_bytes;
              quarantined_bytes = !quarantined;
              peak_buffered = !peak;
              checkpoints = !checkpoints;
              incomplete } }

let run_string ?chunk_size ?max_frame ?max_buffered ?recovery ?quarantine
    ?checkpoint ?resume ?engines ?budget ?on_overload ~spec text =
  (* On resume the transport must stand at the checkpointed offset; for
     an in-memory document that is a simple seek. *)
  let pos =
    ref
      (match resume with
      | Some ck -> min ck.Checkpoint.ck_position (String.length text)
      | None -> 0)
  in
  let read buf off len =
    let n = min len (String.length text - !pos) in
    Bytes.blit_string text !pos buf off n;
    pos := !pos + n;
    n
  in
  run ?chunk_size ?max_frame ?max_buffered ?recovery ?quarantine ?checkpoint
    ?resume ?engines ?budget ?on_overload ~spec ~read ()

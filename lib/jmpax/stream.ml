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

(* Pull chunks from [read] into the {!Driver}'s reader and let it feed
   each decoded item to the engine bundle.  Malformed input surfaces as
   skips the [recovery] policy decides about; only backpressure (a
   resource bound, not an input defect) and a failing checkpoint write
   are unconditionally fatal. *)
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
  let* d =
    match
      Driver.create ?max_frame ?max_buffered ?quarantine ?checkpoint ?resume
        ~recovery ~kinds:engines ~budget ~on_overload ~spec ()
    with
    | d -> Ok d
    | exception Invalid_argument msg when resume <> None ->
        Error (Wire.Error.Checkpoint msg)
  in
  let reader = Driver.reader d in
  let buf = Bytes.create chunk_size in
  (match (max_buffered, M.enabled ()) with
  | Some limit, true -> M.set m_max_buffered limit
  | _ -> ());
  let write_checkpoint () =
    match Driver.write_checkpoint d with
    | Ok _ -> Ok ()
    | Error e -> Error (Wire.Error.Checkpoint e)
  in
  (* A checkpoint is due-checked after every consumed item.  A breach
     under [Evict]/[Fail] ([Degrade] relieves it in place) stops the
     stream with {!Budget.Exceeded}, after persisting a final checkpoint
     under [Evict] so the state survives the drop.  Matches, not
     [let*]: a bind's continuation is a closure allocated per
     message. *)
  let rec loop () =
    match Driver.next d with
    | Driver.Continue | Driver.Degraded ->
        if Driver.checkpoint_due d then
          match write_checkpoint () with Ok () -> loop () | Error _ as e -> e
        else loop ()
    | Driver.Await ->
        let n = read buf 0 chunk_size in
        if n = 0 then Wire.Reader.close reader
        else
          (* Zero-copy: the chunk is blitted from the transport buffer
             straight into the reader's parse buffer, no intermediate
             string. *)
          Wire.Reader.feed_bytes reader buf 0 n;
        loop ()
    | Driver.Ended -> Ok ()
    | Driver.Failed e -> Error e
    | Driver.Breach breach -> (
        match on_overload with
        | Budget.Evict -> (
            match write_checkpoint () with
            | Ok () -> raise (Budget.Exceeded breach)
            | Error _ as e -> e)
        | Budget.Degrade | Budget.Fail -> raise (Budget.Exceeded breach))
  in
  let* () = loop () in
  let* b, incomplete = Driver.complete d in
  let r = Wire.Reader.stats reader in
  let quarantined = Driver.quarantined d and peak = Driver.peak_buffered d in
  if M.enabled () then begin
    M.add m_frames r.Wire.Reader.frames;
    M.add m_messages r.Wire.Reader.messages;
    M.add m_skipped_frames r.Wire.Reader.skipped_frames;
    M.add m_resyncs r.Wire.Reader.resyncs;
    M.add m_skipped_bytes r.Wire.Reader.skipped_bytes;
    M.add m_quarantined_bytes quarantined;
    M.set_max m_peak_buffered peak
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
        (match online with Some o -> Predict.Online.violations o | None -> []);
      s_level = (match online with Some o -> Predict.Online.level o | None -> 0);
      s_gc = (match online with Some o -> Predict.Online.gc_stats o | None -> no_gc);
      s_engines = Predict.Engines.verdict_lines b;
      s_degraded = Predict.Engines.degraded b;
      s_stats =
        { frames = r.Wire.Reader.frames;
          messages = r.Wire.Reader.messages;
          ends = Driver.ends d;
          skipped_frames = r.Wire.Reader.skipped_frames;
          resyncs = r.Wire.Reader.resyncs;
          skipped_bytes = r.Wire.Reader.skipped_bytes;
          quarantined_bytes = quarantined;
          peak_buffered = peak;
          checkpoints = Driver.checkpoints d;
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

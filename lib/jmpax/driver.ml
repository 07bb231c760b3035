open Trace

type step =
  | Continue
  | Degraded
  | Await
  | Ended
  | Failed of Wire.Error.t
  | Breach of Budget.breach

type t = {
  reader : Wire.Reader.t;
  sid : string option;
  spec : Pastltl.Formula.t;
  spec_fp : string Lazy.t;
  kinds : Predict.Engine.kind list;
  max_buffered : int option;
  recovery : Config.recovery;
  quarantine : (string -> unit) option;
  checkpoint : (string * int) option;
  budget : Budget.limits;
  on_overload : Budget.policy;
  mutable bundle : Predict.Engines.t option;
  mutable events : int;
  mutable ends : int;
  mutable quarantined : int;
  mutable peak : int;
  mutable checkpoints : int;
  mutable last_ck_ticks : int;
  mutable stale : Types.tid option;
      (* The first thread that lost a delta frame to a stale baseline:
         its messages are gone from there on, even when nothing
         buffered behind them shows the gap. *)
}

let create ?sid ?max_frame ?max_buffered ?quarantine ?checkpoint ?resume
    ~recovery ~kinds ~budget ~on_overload ~spec () =
  (match max_buffered with
  | Some k when k < 0 -> invalid_arg "Driver.create: max_buffered must be >= 0"
  | _ -> ());
  let reader, bundle =
    match resume with
    | None -> (Wire.Reader.create ?max_frame (), None)
    | Some ck ->
        let h = ck.Checkpoint.ck_header in
        let b =
          Predict.Engines.restore ?degraded:ck.Checkpoint.ck_degraded ~kinds
            ~nthreads:h.Wire.nthreads ~spec:(Some spec)
            ~online_snapshot:ck.Checkpoint.ck_online
            ~blocks:ck.Checkpoint.ck_engines
            ~events:ck.Checkpoint.ck_reader_stats.Wire.Reader.messages ()
        in
        (Checkpoint.reader ?max_frame ck, Some b)
  in
  let resumed f = match resume with Some ck -> f ck | None -> 0 in
  { reader; sid; spec; kinds; max_buffered; recovery; quarantine; checkpoint; budget;
    on_overload; bundle;
    spec_fp = lazy (Checkpoint.fingerprint spec);
    events = resumed (fun ck -> ck.Checkpoint.ck_reader_stats.Wire.Reader.messages);
    ends = resumed (fun ck -> ck.Checkpoint.ck_ends);
    quarantined = resumed (fun ck -> ck.Checkpoint.ck_quarantined);
    peak = resumed (fun ck -> ck.Checkpoint.ck_peak_buffered);
    checkpoints = 0;
    last_ck_ticks =
      (match bundle with Some b -> Predict.Engines.ticks b | None -> 0);
    stale = None }

let reader t = t.reader
let bundle t = t.bundle
let events t = t.events
let ends t = t.ends
let quarantined t = t.quarantined
let peak_buffered t = t.peak
let checkpoints t = t.checkpoints

(* {1 Checkpoints}

   A checkpoint is taken at a clean frame boundary (right after an item,
   or at [Await]): the reader's garbage buffer is empty there, so
   [consumed] is a position a resumed transport can seek to.  The
   cadence clock is {!Predict.Engines.ticks}: the lattice level when the
   lattice engine runs, otherwise the message count. *)

let checkpoint_due t =
  match (t.checkpoint, t.bundle) with
  | Some (_, every), Some b -> Predict.Engines.ticks b - t.last_ck_ticks >= every
  | _ -> false

let write_checkpoint t =
  match (t.checkpoint, t.bundle, Wire.Reader.header t.reader) with
  | Some (path, _), Some b, Some header -> (
      let ck =
        { Checkpoint.ck_header = header;
          ck_spec_fp = Lazy.force t.spec_fp;
          ck_position = Wire.Reader.consumed t.reader;
          ck_next_eid = Wire.Reader.next_eid t.reader;
          ck_reader_stats = Wire.Reader.stats t.reader;
          ck_reader_ended = Wire.Reader.ended_threads t.reader;
          ck_v3 = Wire.Reader.v3_state t.reader;
          ck_ends = t.ends;
          ck_quarantined = t.quarantined;
          ck_peak_buffered = t.peak;
          ck_engines = Predict.Engines.snapshots b;
          ck_online = Option.map Predict.Online.snapshot (Predict.Engines.online b);
          ck_degraded = Predict.Engines.degraded b }
      in
      match Checkpoint.write path ck with
      | Ok () ->
          t.last_ck_ticks <- Predict.Engines.ticks b;
          t.checkpoints <- t.checkpoints + 1;
          Telemetry.Log.info ?sid:t.sid ~event:"checkpoint"
            ~fields:
              [ ("path", path);
                ("position", string_of_int ck.Checkpoint.ck_position);
                ("ticks", string_of_int t.last_ck_ticks) ]
            "";
          Ok true
      | Error e -> Error (Checkpoint.error_to_string e))
  | _ -> Ok false

(* {1 One item} *)

let skip t error bytes =
  (match (error, t.stale) with
  | Wire.Error.Stale_delta_baseline { tid }, None -> t.stale <- Some tid
  | _ -> ());
  match t.recovery with
  | Config.Fail -> Failed error
  | Config.Skip -> Continue
  | Config.Quarantine ->
      t.quarantined <- t.quarantined + String.length bytes;
      (match t.quarantine with Some sink -> sink bytes | None -> ());
      Continue

(* [Degrade] relieves the breach by swapping the lattice engine for the
   linear-time ones at the current clean causal boundary (a feed always
   pumps to quiescence): a frontier breach implies a live lattice engine,
   since its cut count is 0 without one.  Under [Evict] and [Fail] the
   breach is the front end's to handle. *)
let relieve t b breach =
  match t.on_overload with
  | Budget.Degrade ->
      let reason = Budget.breach_reason breach in
      Predict.Engines.degrade b ~reason;
      (* The marker's [at_event]: the events fed when the swap happened. *)
      Telemetry.Log.warn ?sid:t.sid ~event:"degrade"
        ~fields:
          [ ("reason", reason);
            ("at_event", string_of_int (Predict.Engines.events b)) ]
        (Budget.breach_message breach);
      Degraded
  | Budget.Evict | Budget.Fail -> Breach breach

let check_budget t b =
  if Budget.is_unlimited t.budget then Continue
  else begin
    let u = Budget.usage b in
    Budget.observe u;
    match Budget.check t.budget u with
    | None -> Continue
    | Some breach -> relieve t b breach
  end

(* Matches throughout, not [let*] or [Option.iter]: a bind's
   continuation or a closure over [m] would be allocated per message.
   The one bound on held messages: a message that leaves more than
   [max_buffered] held, in the lattice's store or the delivery buffer,
   fails the stream. *)
let feed t m =
  match t.bundle with
  | None -> Failed Wire.Error.Missing_header_frame
  | Some b -> (
      match Predict.Engines.feed b m with
      | () -> (
          let o = Predict.Engines.out_of_order b in
          match t.max_buffered with
          | Some limit when o > limit ->
              Failed (Wire.Error.Backpressure { buffered = o; limit })
          | _ ->
              t.events <- t.events + 1;
              if o > t.peak then t.peak <- o;
              check_budget t b)
      | exception Invalid_argument _ -> (
          (* A well-formed frame carrying a (thread, index) pair we
             already consumed: an input defect, so the recovery policy
             applies to the frame's own bytes. *)
          match
            skip t
              (Wire.Error.Duplicate_message
                 { tid = m.Message.tid; index = Message.seq m })
              (Wire.Reader.refuse t.reader)
          with
          | Continue -> check_budget t b
          | step -> step))

(* Every thread's end-of-stream frame has arrived and nothing is
   pending: the stream is logically over, whatever the transport thinks.
   Stopping here matters for reconnecting transports, which cannot tell
   a finished writer from a crashed one and would burn their whole retry
   budget at a clean end of stream. *)
let logically_ended t =
  Wire.Reader.pending_bytes t.reader = 0
  &&
  match Wire.Reader.header t.reader with
  | Some h ->
      let ended = Wire.Reader.ended_threads t.reader in
      Array.length ended = h.Wire.nthreads && Array.for_all Fun.id ended
  | None -> false

let next t =
  match Wire.Reader.next t.reader with
  | Wire.Reader.Item (Wire.Reader.Msg m) -> feed t m
  | Wire.Reader.Item (Wire.Reader.Header h) ->
      t.bundle <-
        Some
          (Predict.Engines.create ~kinds:t.kinds
             ~nthreads:h.Wire.nthreads ~init:h.Wire.init ~spec:(Some t.spec) ());
      Continue
  | Wire.Reader.Item (Wire.Reader.End_of_thread tid) -> (
      t.ends <- t.ends + 1;
      match t.bundle with
      | Some b ->
          Predict.Engines.end_of_thread b tid;
          check_budget t b
      | None -> Continue)
  | Wire.Reader.Skip { error; bytes } -> skip t error bytes
  | Wire.Reader.Await -> if logically_ended t then Ended else Await
  | Wire.Reader.Eof -> Ended

(* {1 Completion} *)

let complete t =
  match t.bundle with
  | None -> Error Wire.Error.Missing_header_frame
  | Some b -> (
      let gap =
        match Predict.Engines.missing b with
        | Some _ as gap -> gap
        | None -> Option.map (fun tid -> (tid, Predict.Engines.next_index b tid)) t.stale
      in
      match (gap, t.recovery) with
      | Some (tid, next), Config.Fail -> Error (Wire.Error.Missing_messages { tid; next })
      | None, _ ->
          Predict.Engines.finish b;
          Ok (b, None)
      | Some _, (Config.Skip | Config.Quarantine) ->
          (* A gap is one more recoverable loss: [finish] would raise on
             it, and every engine has already consumed as much as its
             prefix allows, so the verdict covers the received prefix. *)
          Ok (b, gap))

let verdict_lines ~engines ~degraded ~lattice =
  List.map snd engines
  @
  (* A degraded bundle's marker line stands where the lattice verdict
     would have: reduced coverage is never presented as a full verdict. *)
  match (degraded, lattice) with
  | Some d, _ -> [ Pipeline.degraded_verdict_line d ]
  | None, Some violated -> [ Pipeline.verdict_line violated ]
  | None, None -> []

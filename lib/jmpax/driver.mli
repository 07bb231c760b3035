(** The per-message driver shared by [jmpax stream] ({!Stream}) and the
    [jmpax serve] sessions.

    One driver is the observer of one monitored stream: an incremental
    {!Wire.Reader} and the {!Predict.Engines} bundle its header frame
    creates (or a {!Checkpoint} restores).  {!next} consumes one decoded
    item and applies everything both front ends must agree on: the
    recovery policy for malformed frames, the duplicate mapping, the
    one bound on held messages ([max_buffered]), the resource budget
    with [Degrade] applied in place, and the logical end of the
    stream.  {!complete} decides
    whether the input was complete before any verdict is drawn.

    What stays with each front end is where bytes come from (a
    transport, a socket), where it asks for a checkpoint
    ({!checkpoint_due}), and what a budget breach under [Evict] or
    [Fail] does to it ({!Breach}): [stream] raises, a serve session is
    evicted or failed. *)

open Trace

type t

(** What one {!next} did. *)
type step =
  | Continue  (** one item consumed, or skipped by the recovery policy *)
  | Degraded
      (** one item consumed, and the bundle shed its lattice engine under
          the frontier budget ({!Predict.Engines.degrade}) *)
  | Await  (** the reader needs more bytes *)
  | Ended
      (** end of input: the transport closed, or every thread's
          end-of-stream frame arrived with no byte pending *)
  | Failed of Wire.Error.t
      (** a malformed frame under [Fail], or {!Wire.Error.Backpressure}:
          a message left more than [max_buffered] messages held *)
  | Breach of Budget.breach
      (** a budget crossed under [Evict] or [Fail] ([Degrade] relieves
          it in place) *)

val create :
  ?sid:string ->
  ?max_frame:int ->
  ?max_buffered:int ->
  ?quarantine:(string -> unit) ->
  ?checkpoint:string * int ->
  ?resume:Checkpoint.t ->
  recovery:Config.recovery ->
  kinds:Predict.Engine.kind list ->
  budget:Budget.limits ->
  on_overload:Budget.policy ->
  spec:Pastltl.Formula.t ->
  unit ->
  t
(** [sid] tags the driver's log lines.  [max_buffered] bounds the
    messages held waiting for an earlier one
    ({!Predict.Engines.out_of_order}), checked after every message: the
    message that leaves more than [max_buffered] held is
    {!Wire.Error.Backpressure}, whatever engines run.
    [checkpoint:(path, every)]
    names the checkpoint file and its cadence, in {!Predict.Engines.ticks}.
    Under [Quarantine] the bytes of every skipped frame go to
    [quarantine] and count in {!quarantined}.  [resume] rebuilds the
    reader and the engines from a checkpoint taken under the same
    engine set.
    @raise Invalid_argument when [max_buffered] is negative, or when
    [resume] does not fit [kinds] or its own header. *)

val next : t -> step
(** Consume one decoded item.  Allocates nothing when a message goes in
    within budget. *)

val checkpoint_due : t -> bool
(** A checkpoint file is configured and the bundle's ticks moved by at
    least its cadence since the last write (or the resume). *)

val write_checkpoint : t -> (bool, string) result
(** Write the resumable state to the configured file (atomically) and
    restart the cadence.  Call it at a clean frame boundary only: right
    after {!next} returned an item, or at [Await].  [Ok false] when
    there is no file or nothing to persist yet; [Error] carries
    {!Checkpoint.error_to_string}. *)

val complete :
  t -> (Predict.Engines.t * (Types.tid * int) option, Wire.Error.t) result
(** End of input.  Finds the first gap: a missing message behind a
    buffered one ({!Predict.Engines.missing}), or else the next message
    of the first thread that lost a delta frame to a stale baseline.
    Without a gap the engines {!Predict.Engines.finish}; with one, under
    [Fail] the gap is {!Wire.Error.Missing_messages}, under
    [Skip]/[Quarantine] it is returned and the verdict covers the
    received prefix.  {!Wire.Error.Missing_header_frame} without a
    header. *)

val verdict_lines :
  engines:(string * string) list ->
  degraded:Predict.Engines.degraded option ->
  lattice:bool option ->
  string list
(** The verdict lines of a finished bundle: each non-lattice engine's
    line ({!Predict.Engines.verdict_lines}), then the lattice line —
    {!Pipeline.degraded_verdict_line} for a bundle that shed its lattice
    engine, else {!Pipeline.verdict_line} of [lattice] (whether the
    lattice engine found a violation, [None] when it did not run). *)

(** {1 State} *)

val reader : t -> Wire.Reader.t
val bundle : t -> Predict.Engines.t option

val events : t -> int
(** Messages the engines accepted (a duplicate is skipped, not counted). *)

val ends : t -> int
val quarantined : t -> int
val peak_buffered : t -> int
val checkpoints : t -> int

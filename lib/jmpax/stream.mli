(** Robust streaming ingestion: the online observer fed from a byte
    transport.

    [run] pulls chunks from a transport (file, FIFO, socket, stdin —
    anything exposing a [read] function), decodes the framed wire format
    v3 incrementally ({!Wire.Reader}), and drives {!Predict.Online} so
    verdicts stream out while the monitored program still runs.  Two
    knobs make it survive hostile input:

    - a {e recovery policy} ({!Config.recovery}) for malformed frames —
      abort, skip to the next frame, or skip-and-quarantine the raw
      bytes; skipped input is counted in {!stats} and in the
      [stream.*] telemetry counters;
    - a {e backpressure bound} [max_buffered] on messages held waiting
      for an earlier one (in the lattice's store or the race/atomicity
      engines' delivery buffer), so a reordering or lossy channel
      cannot grow the observer's buffers without bound (surfaced as the
      [stream.max_buffered] and [stream.peak_buffered] gauges).

    For long-running monitors two more knobs add crash safety:
    [checkpoint] periodically persists the full resumable state as a
    {!Checkpoint} (its frontier is garbage-collected level by level, but
    its message store still holds most of the messages received; see
    {!Checkpoint}), and [resume] restarts a run from such a
    checkpoint with verdicts, violations and gc statistics identical
    to never having stopped. *)

open Trace

type stats = {
  frames : int;  (** well-formed frames consumed *)
  messages : int;
  ends : int;  (** end-of-stream frames consumed *)
  skipped_frames : int;
  resyncs : int;
  skipped_bytes : int;
  quarantined_bytes : int;
  peak_buffered : int;  (** peak out-of-order buffered messages *)
  checkpoints : int;  (** checkpoints written during this run *)
  incomplete : (Types.tid * int) option;
      (** the stream ended while this thread was still missing this
          message index (possible only under [Skip]/[Quarantine]): a
          gap behind a buffered message, or else the next message of the
          first thread whose delta frame a skip left undecodable
          ({!Wire.Error.Stale_delta_baseline}) *)
}

type outcome = {
  s_header : Wire.header;
  s_violated : bool;  (** any selected engine reported a violation *)
  s_lattice : bool;  (** the lattice engine was selected for this run *)
  s_violations : Predict.Analyzer.violation list;
      (** lattice violations; [[]] when the lattice engine did not run *)
  s_level : int;  (** final lattice level; [0] without the lattice engine *)
  s_gc : Predict.Online.gc_stats;  (** all-zero without the lattice engine *)
  s_engines : (string * string) list;
      (** canonical [(engine, verdict)] lines of the selected non-lattice
          engines ({!Predict.Engines.verdict_lines}), in selection order *)
  s_degraded : Predict.Engines.degraded option;
      (** [Some _] iff the run shed its lattice engine under a resource
          budget ([--on-overload degrade]); render the verdict with
          {!Pipeline.degraded_verdict_line} so the reduced coverage is
          explicit *)
  s_stats : stats;
}

val run :
  ?chunk_size:int ->
  ?max_frame:int ->
  ?max_buffered:int ->
  ?recovery:Config.recovery ->
  ?quarantine:(string -> unit) ->
  ?checkpoint:string * int ->
  ?resume:Checkpoint.t ->
  ?engines:Predict.Engine.kind list ->
  ?budget:Budget.limits ->
  ?on_overload:Budget.policy ->
  spec:Pastltl.Formula.t ->
  read:(bytes -> int -> int -> int) ->
  unit ->
  (outcome, Wire.Error.t) result
(** [read buf pos len] must block until input is available and return 0
    at end of transport.  Each decoded item goes through a {!Driver},
    the per-message driver the serve sessions share: it never raises on
    malformed input (every decode failure is recovered per [recovery]
    or returned as a typed [Error]), {!Wire.Error.Backpressure} (the
    message that leaves more than [max_buffered] held) is always
    fatal, and a gap at the end is {!stats}[.incomplete].  On a
    clean, complete stream the verdict, violations and gc statistics
    are identical to feeding the same messages to {!Predict.Online}
    directly (and hence to the offline analyzer).

    [checkpoint:(path, every)] writes a {!Checkpoint} to [path]
    (atomically) each time the analyzer's lattice level has advanced by
    at least [every] since the last write, always at a clean frame
    boundary.  A failed write is {!Wire.Error.Checkpoint} and fatal —
    silently continuing without crash safety would defeat the point.

    [resume] continues a checkpointed run: [read] must already be
    positioned at [ck_position] (a {!Transport.reconnecting} transport
    with [~skip], or any pre-seeked source).  The checkpoint should
    have been {!Checkpoint.validate}d against [spec] first; an
    inconsistent one is refused with {!Wire.Error.Checkpoint}, never
    partially applied.  Event ids, statistics and verdicts continue
    exactly where the original run stopped: a kill + resume is
    indistinguishable from an uninterrupted run, which the differential
    test suite checks across random kill points.

    [engines] selects the engine set ({!Predict.Engine.kind}, default
    [\[Lattice\]]).  Without the lattice engine the checkpoint cadence
    counts messages instead of lattice levels, and [s_level] / [s_gc] /
    [s_violations] stay at their zero values.  A resume must select the
    exact engine set the checkpoint was taken under; a mismatch is
    refused with {!Wire.Error.Checkpoint}.

    Reading stops at the stream's logical end (every thread's
    end-of-stream frame decoded and no bytes pending), so a
    reconnecting transport is never asked to redial at a clean end of
    stream.

    [budget] (default {!Budget.unlimited}) bounds the live analysis
    state, checked after every consumed item.  When a limit is crossed,
    [on_overload] decides: [Degrade] relieves a frontier breach in place
    ({!Predict.Engines.degrade}) and keeps streaming with [s_degraded]
    set; [Evict] persists a final checkpoint (when [checkpoint] is
    configured) and raises; [Fail], the default, raises at once.  The
    raise is {!Budget.Exceeded}, the only exception this function lets
    escape; front ends map it to the budget exit code. *)

val run_string :
  ?chunk_size:int ->
  ?max_frame:int ->
  ?max_buffered:int ->
  ?recovery:Config.recovery ->
  ?quarantine:(string -> unit) ->
  ?checkpoint:string * int ->
  ?resume:Checkpoint.t ->
  ?engines:Predict.Engine.kind list ->
  ?budget:Budget.limits ->
  ?on_overload:Budget.policy ->
  spec:Pastltl.Formula.t ->
  string ->
  (outcome, Wire.Error.t) result
(** [run] over an in-memory document, chunked at [chunk_size]; under
    [resume] the document is consumed from the checkpointed offset. *)

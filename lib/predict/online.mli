(** Online predictive analysis: the observer of the paper's title.

    Messages [⟨e, i, V⟩] arrive one at a time, in any order; the analyzer
    buffers them, and as soon as every event that can occur in the next
    lattice level is in hand, it advances its frontier by one level and
    {e garbage-collects} the previous one (paper, Section 4: "one can
    buffer them at the observer's side and then build the lattice on a
    level-by-level basis ... as the events become available", "parts of
    the lattice which become non-relevant ... can be garbage-collected
    while the analysis process continues").

    Level [L+1] of the lattice can only involve, from each thread [i],
    that thread's relevant events with index [<= L+1]; the frontier
    therefore advances to [L+1] once every thread has either delivered
    its events [1..L+1] or finished with fewer. Thread completion is
    announced with {!end_of_thread} (the instrumented program knows when
    a thread halts); without it the analyzer still makes all progress
    that is safe.

    This is the only lattice sweep in the library and the one route to
    a lattice verdict: [jmpax check] feeds it the channel's delivery
    order ({!Analyzer.sweep}), [jmpax stream] and [jmpax serve] the
    decoded wire ({!Engines}).  The frontier runs on the sequential
    {!Observer.Frontier} engine.
    Verdicts do not depend on delivery order, and they agree with
    explicit run enumeration ({!Counterexample.check}) — properties the
    test suite checks over random programs. *)

open Trace

type t

type violation = {
  cut : int array;
  level : int;
  state : Pastltl.State.t;  (** the global state falsifying the spec *)
  monitor_state : Pastltl.Monitor.state;
}
(** A reachable cut where some path's monitor evaluates the
    specification to false. *)

val max_violations : int
(** [1000]: at most this many violations are kept, the first ones in
    level order (canonical cut order within a level).  {!violated} is
    unaffected by the cap. *)

exception Backpressure of { buffered : int; limit : int }
(** Raised by {!feed} when accepting an out-of-order message would
    exceed the [max_buffered] bound. *)

val create :
  ?max_buffered:int ->
  nthreads:int ->
  init:(Types.var * Types.value) list ->
  spec:Pastltl.Formula.t ->
  unit ->
  t
(** The frontier starts as the bottom cut (level 0), already checked
    against the specification.

    [max_buffered] bounds the messages buffered {e out of order} (past
    their thread's contiguous prefix): one more makes {!feed} raise
    {!Backpressure}, keeping the observer's memory bounded under a
    reordering channel.  The bound and the observed peak surface as the
    [online.max_buffered] / [online.peak_buffered] telemetry gauges. *)

val feed : t -> Message.t -> unit
(** Accept one message (any order) and advance as far as possible.
    @raise Invalid_argument on duplicates or thread ids out of range.
    @raise Backpressure when the out-of-order buffer bound is full. *)

val feed_all : t -> Message.t list -> unit

val end_of_thread : t -> Types.tid -> unit
(** Declare that the thread will emit no further messages. *)

val finish : t -> unit
(** Declare end-of-stream for every thread.
    @raise Invalid_argument if buffered messages are still missing a
    predecessor (a lost message). *)

val violated : t -> bool
val violations : t -> violation list
(** Violations found so far, in level order, at most {!max_violations}. *)

val level : t -> int
(** The frontier's current lattice level. *)

val frontier_cuts : t -> int

val mem_words : t -> int
(** Approximate resident size of the analyzer's live state in words —
    both of the frontier's level buffers plus the message store: the
    stored messages with their clocks and the per-thread log blocks
    holding them (the violation report is bounded by
    {!max_violations}).  O(threads)
    arithmetic over maintained counters, cheap enough to check after
    every feed; the resource-budget layer compares it against
    [--memory-budget]. *)

val handoff : t -> int array * bool array * Trace.Message.t list
(** The clean causal boundary at the current quiescent point, for
    degrading onto the linear-time engines: per-thread contiguous
    delivered prefix, per-thread ended flags, and the buffered
    out-of-order messages still beyond the prefix (ascending
    [(tid, seq)]).  Must be taken between {!feed} calls, like
    {!snapshot}.  Engines seeded from this cut observe only the suffix
    of the stream — the caller stamps the verdict with an explicit
    [degraded] marker to say so. *)

val buffered : t -> int
(** Messages received but not yet consumed by the frontier. *)

val out_of_order : t -> int
(** Buffered messages still missing a predecessor — the quantity bounded
    by [max_buffered]. *)

val missing : t -> (Types.tid * int) option
(** The first thread with a delivery gap and the index it is waiting
    for; [None] when every buffered message is contiguous. *)

val next_index : t -> Types.tid -> int
(** The index of the thread's next message the store has not received
    (one past its contiguous prefix). *)

type gc_stats = {
  retired_cuts : int;  (** cuts discarded after their level was passed *)
  peak_frontier_cuts : int;
  peak_frontier_entries : int;  (** (cut, monitor state) pairs *)
  monitor_steps : int;
}

val gc_stats : t -> gc_stats

(** {1 Checkpointing}

    The analyzer's live state at any quiescent point (between {!feed}
    calls) is the current frontier, the undelivered message store, and
    a few counters.  The level-by-level garbage collection keeps the
    frontier small, but not the store: a level advances only once every
    thread has delivered [level + 1] messages, so on an n-thread stream
    whose threads interleave the store holds about (n−1)/n of the
    messages received (ROADMAP item 4(a)).  {!snapshot} captures exactly
    that as plain serializable
    values; {!restore} rebuilds an analyzer that continues the run with
    verdicts, violations and {!gc_stats} identical to never having
    stopped — the property the crash-kill-resume differential suite
    checks. *)

type snapshot = {
  snap_nthreads : int;
  snap_level : int;
  snap_done : bool;
  snap_prefix : int array;  (** per-thread delivered contiguous prefix *)
  snap_beyond : int array;  (** per-thread out-of-order buffered count *)
  snap_gc_floor : int array;
  snap_ended : bool array;
  snap_store : Message.t list;
      (** buffered undelivered messages, ascending [(tid, seq)] *)
  snap_frontier : (int array * (Types.var * Types.value) list * string list) list;
      (** current level: cut, global-state bindings, monitor states as
          {!Pastltl.Monitor.state_to_string} bit strings *)
  snap_violations : (int array * int * (Types.var * Types.value) list * string) list;
      (** violations found so far, oldest first *)
  snap_retired_cuts : int;
  snap_peak_frontier_cuts : int;
  snap_peak_frontier_entries : int;
  snap_monitor_steps : int;
}

val snapshot : t -> snapshot
(** Must be taken at a quiescent point — not from within a [feed]. *)

val restore :
  ?max_buffered:int ->
  spec:Pastltl.Formula.t ->
  snapshot ->
  t
(** The monitor is recompiled from [spec]; [max_buffered] is supplied
    fresh, so a run can resume under a different buffering bound than it
    was checkpointed under.
    @raise Invalid_argument when the snapshot is internally inconsistent
    (a frontier cut listed twice, say) or its monitor states do not fit
    [spec] (wrong specification). *)

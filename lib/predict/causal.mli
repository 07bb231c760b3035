(** Causal-order delivery buffer for the message-driven engines.

    The streaming race and atomicity engines reconstruct the sync-only
    happens-before ({!Syncclock}) from the message stream itself, which
    is only deterministic when messages are processed in {e some}
    linearization of the causal order their clocks carry.  This buffer
    accepts messages in any arrival order and releases them causally:
    message [m] of thread [t] with own index [s = m.mvc(t)] is delivered
    once messages [1..s-1] of [t] and the first [m.mvc(j)] messages of
    every other thread [j] have been delivered — the classic
    vector-clock delivery condition, here over Algorithm A clocks with
    the all-events relevance (every access relevant, so indices are
    contiguous).

    Duplicate and out-of-range messages raise [Invalid_argument] with
    the same semantics as {!Online.feed}, so the streaming front ends
    treat all engines uniformly.  The buffer itself is unbounded: the
    front ends bound it with [--max-buffered], which they check against
    {!buffered} after each message. *)

open Trace

type t

val create : nthreads:int -> unit -> t

val feed : t -> Message.t -> Message.t list
(** Buffer one message and return every message that became deliverable,
    in causal order: ready threads are visited cyclically in ascending
    order from thread 0, each delivering its whole run of consecutive
    deliverable messages, until none is ready.  O(threads) per delivered
    message.
    @raise Invalid_argument on duplicates, out-of-range thread ids,
    clocks narrower than the thread count, or messages arriving after
    their thread ended. *)

val end_of_thread : t -> Types.tid -> unit
val buffered : t -> int
val peak_buffered : t -> int
val nthreads : t -> int

val mem_words : t -> int
(** Words held by the buffer: about 16 per buffered message plus every
    slot of the per-thread rings (each grows by doubling, to at most
    1,024 slots, as messages arrive ahead of the delivered prefix) and
    of the waiting lists, and a map node per message held farther
    ahead.  The fixed per-thread arrays are not counted.  O(1). *)

val missing : t -> (Types.tid * int) option
(** The blocker of the lowest-numbered thread that has buffered messages
    but cannot deliver: [(t, s)] when its own next message [s] is
    absent, otherwise [(j, s)] for the first thread [j] whose delivered
    prefix its head still needs, [s] being [j]'s next index.  [None]
    when nothing buffered is blocked.  O(threads): read off the delivery
    index, with no clock scan. *)

val next_index : t -> Types.tid -> int
(** The index of the thread's next undelivered message. *)

val finish : t -> unit
(** Declare end-of-stream.
    @raise Invalid_argument when buffered messages can never be
    delivered (a lost message). *)

(** {1 Checkpointing} *)

type snapshot = {
  snap_delivered : int array;
  snap_ended : bool array;
  snap_pending : Message.t list;  (** ascending [(tid, seq)] *)
  snap_peak_buffered : int;
}

val snapshot : t -> snapshot
val restore : snapshot -> t
(** @raise Invalid_argument on an inconsistent snapshot. *)

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
    the same semantics as {!Online.feed}, and the out-of-order bound
    raises {!Online.Backpressure}, so the streaming front ends treat all
    engines uniformly. *)

open Trace

type t

exception Causal_buffer_overflow of { buffered : int; limit : int }
(** Raised by {!feed} when the delivery buffer exceeds the
    [overflow_limit] {e budget} cap.  Unlike {!Online.Backpressure}
    (the hard per-stream bound, exit class 4), this typed error is
    routed through the resource-budget overload policy
    (degrade / evict / fail), so a slow-loris writer withholding one
    thread's messages gets the per-session treatment instead of growing
    the daemon without bound. *)

val create : ?max_buffered:int -> ?overflow_limit:int -> nthreads:int -> unit -> t
(** [max_buffered] is the hard backpressure bound ({!Online.Backpressure});
    [overflow_limit] is the softer budget cap ({!Causal_buffer_overflow}).
    When both are exceeded by one message the budget cap wins. *)

val feed : t -> Message.t -> Message.t list
(** Buffer one message and return every message that became deliverable,
    in causal order: ready threads are visited cyclically in ascending
    order from thread 0, each delivering its whole run of consecutive
    deliverable messages, until none is ready.  O(threads) per delivered
    message.
    @raise Invalid_argument on duplicates, out-of-range thread ids,
    clocks narrower than the thread count, or messages arriving after
    their thread ended.
    @raise Causal_buffer_overflow when the buffer exceeds [overflow_limit].
    @raise Online.Backpressure when the buffer exceeds [max_buffered]. *)

val end_of_thread : t -> Types.tid -> unit
val buffered : t -> int
val peak_buffered : t -> int
val delivered_total : t -> int
val nthreads : t -> int

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
  snap_delivered_total : int;
}

val snapshot : t -> snapshot
val restore : ?max_buffered:int -> ?overflow_limit:int -> snapshot -> t
(** @raise Invalid_argument on an inconsistent snapshot. *)

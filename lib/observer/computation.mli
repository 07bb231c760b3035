(** The observer's abstraction of the running program: the
    {e multithreaded computation}, i.e. the relevant events with their
    MVCs and the causal partial order [⊳] recovered from them via
    Theorem 3 (paper, Sections 2.2 and 4). *)

open Trace

type t

val of_messages :
  nthreads:int ->
  init:(Types.var * Types.value) list ->
  Message.t list ->
  (t, string) result
(** Builds a computation from messages received {e in any order}: they
    are grouped by emitting thread and sorted by their per-thread index
    [V\[i\]]. Fails if some thread's indices are not exactly [1..k] (a
    lost or duplicated message). *)

val of_messages_exn :
  nthreads:int -> init:(Types.var * Types.value) list -> Message.t list -> t
(** @raise Invalid_argument on the same conditions. *)

val nthreads : t -> int
val total : t -> int
(** Total number of relevant events. *)

val message : t -> Types.tid -> int -> Message.t
(** [message c i k] is the [k]-th (1-based) relevant event of thread [i].
    @raise Invalid_argument if out of range. *)

val messages : t -> Message.t list
(** All messages, by thread then index. *)

val init_state : t -> Pastltl.State.t
val variables : t -> Types.var list
(** Variables updated by some relevant event or present in the initial
    state; sorted. *)

(** {1 The causal order} *)

val precedes : t -> Message.t -> Message.t -> bool
(** [e ⊳ e'] via Theorem 3: [V(e)\[tid e\] <= V(e')\[tid e\]] for distinct
    events. *)

val concurrent : t -> Message.t -> Message.t -> bool

(** {1 Consistent cuts}

    A cut is an [int array] giving, per thread, how many relevant events
    have been consumed; it is {e consistent} when it is downward closed
    under [⊳]. Consistent cuts are the nodes of the computation lattice. *)

val bottom : t -> int array
(** The all-zero cut (initial state). *)

val top : t -> int array
(** The cut containing every relevant event. *)

val is_consistent : t -> int array -> bool
(** @raise Invalid_argument on a malformed cut (wrong length or counts
    out of range). *)

val enabled : t -> int array -> (Types.tid * Message.t) list
(** Events that can extend the cut by one: thread [i]'s next event [e]
    with [V(e)\[j\] <= cut\[j\]] for all [j ≠ i]. On a consistent cut the
    extended cuts are exactly the consistent successors. *)

val apply : Pastltl.State.t -> Message.t -> Pastltl.State.t
(** State update of one relevant event. *)

val state_of_cut : t -> int array -> Pastltl.State.t
(** The global state a cut denotes; well-defined because writes to one
    variable are totally ordered by [⊳]. Computed from scratch in
    O(|cut| · n); the analyzer instead updates states incrementally. *)

val pp : Format.formatter -> t -> unit

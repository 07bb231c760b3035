(** Algorithm A (paper, Fig. 2): the online MVC update algorithm.

    State: one MVC [V_i] per thread, and per shared variable [x] an
    access MVC [V^a_x] and a write MVC [V^w_x], all initialized to 0.
    On event [e] generated by thread [t_i]:

    {v
    1. if e is relevant then V_i[i] <- V_i[i] + 1
    2. if e is a read of x then V_i   <- max(V_i, V^w_x)
                                V^a_x <- max(V^a_x, V_i)
    3. if e is a write of x then V^w_x <- V^a_x <- V_i <- max(V^a_x, V_i)
    4. if e is relevant then send <e, i, V_i> to the observer
    v}

    Clocks for variables are created lazily on first access, so the
    algorithm also covers dynamically shared variables (Section 3.1).

    It runs in place on dense clocks, as the paper's Fig. 2 reads:
    variables are interned to dense ids, [V_i], [V^a_x] and [V^w_x] are
    mutable [int array]s joined with {!Vclock.join_into}, and relevance
    is decided once per variable (per event only for
    {!Relevance.custom}).  A clock is copied only when it leaves — from
    {!process} or an accessor — so a returned [Vclock.t] never changes
    afterwards. *)

open Trace

type t

val create : nthreads:int -> relevance:Relevance.t -> t
(** Fresh state with all MVCs zero.
    @raise Invalid_argument if [nthreads <= 0]. *)

val nthreads : t -> int
val relevance : t -> Relevance.t

val process : t -> Types.tid -> Event.kind -> Vclock.t option
(** Executes steps 1–4 for one event. Returns [Some v] — the emitting
    thread's MVC after the update, to be packaged as [⟨e, i, v⟩] — iff
    the event is relevant.
    @raise Invalid_argument if the thread id is out of range. *)

val thread_clock : t -> Types.tid -> Vclock.t
(** Current [V_i]. *)

val access_clock : t -> Types.var -> Vclock.t
(** Current [V^a_x]; zero if [x] was never accessed. *)

val write_clock : t -> Types.var -> Vclock.t
(** Current [V^w_x]; zero if [x] was never written. *)

val relevant_count : t -> Types.tid -> int
(** Number of relevant events generated by the thread so far,
    [V_i\[i\]]. *)

val invariant : t -> bool
(** Internal-consistency check used by tests: for every tracked
    variable, [V^w_x ≤ V^a_x], and every thread clock is componentwise
    within the totals of relevant events per thread. *)

val intern : t -> Types.var -> int
(** The variable's id, assigning the next free one on first sight.
    Interning distinct names into a fresh state gives ids [0, 1, ...] in
    order, so a caller can line them up with its own numbering. *)

val process_at : t -> Types.tid -> var:int -> Event.kind -> Vclock.t option
(** [process] for an event whose variable has id [var] (from {!intern};
    ignored for an internal event): the same steps, without looking the
    name up.
    @raise Invalid_argument if the thread id is out of range. *)

(** {1 Join accounting}

    Every join of steps 2 and 3 writes all [n] components of its
    destination; the counts are kept process-wide, over every state, and
    surface as the [clock.dense.*] metrics gauges. *)

type join_stats = { joins : int; entry_updates : int }

val join_stats : unit -> join_stats
val reset_join_stats : unit -> unit

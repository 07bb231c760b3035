(** Level-by-level predictive safety analysis (paper, Section 4).

    Checks a past-time LTL specification against {e every} multithreaded
    run of a computation {e in parallel}, by walking the computation
    lattice one level at a time. Each frontier cut carries the global
    state it denotes together with the {e set} of monitor states produced
    by the different paths reaching it; only the current frontier is
    retained ("at most two consecutive levels in the computation lattice
    need to be stored at any moment").

    A violation is a reachable cut where some path's monitor evaluates
    the specification to false. The number of runs can be exponential in
    the number of events, but the frontier is bounded by the number of
    consistent cuts per level times the number of distinct monitor
    states (at most [2^|φ|], in practice a handful).

    The sweep itself is {!Online}'s: {!sweep} feeds one online observer
    the messages in whatever order they arrive, finishes it, and
    repackages its verdict and counters as a report; [jmpax check]
    feeds it the channel's delivery order. *)

open Trace

type violation = Online.violation = {
  cut : int array;
  level : int;
  state : Pastltl.State.t;  (** the global state falsifying the spec *)
  monitor_state : Pastltl.Monitor.state;
}

type stats = {
  levels : int;  (** lattice levels processed (= events + 1 when complete) *)
  max_frontier_cuts : int;  (** widest level encountered *)
  max_frontier_entries : int;  (** widest (cut, monitor-state) population *)
  monitor_steps : int;  (** total monitor transitions taken *)
  cuts_visited : int;  (** consistent cuts swept (= lattice node count) *)
}

type report = {
  spec : Pastltl.Formula.t;
  violations : violation list;
      (** empty iff every run satisfies the spec; at most
          {!Online.max_violations}, the first in level order *)
  stats : stats;
}

val sweep :
  spec:Pastltl.Formula.t ->
  nthreads:int ->
  init:(Types.var * Types.value) list ->
  Message.t list ->
  report
(** [Online.create], [Online.feed_all] over the messages (any order),
    then [Online.finish], under the [predict.analyze] span; records the
    [predict.*] metrics.
    @raise Invalid_argument on a duplicate or lost message. *)

val violated : report -> bool

val observed_run_verdict :
  spec:Pastltl.Formula.t -> init:(Types.var * Types.value) list -> Message.t list -> bool
(** The {e non}-predictive baseline verdict (JPaX / Java-MaC style): check
    the specification only along the single observed interleaving, i.e.
    the messages in their emission order. [true] = no violation
    observed. *)

val pp_violation : vars:Types.var list -> Format.formatter -> violation -> unit
val pp_report : Format.formatter -> report -> unit

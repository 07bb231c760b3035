(** The computation lattice: all consistent cuts of a multithreaded
    computation, each denoting a global state; its paths from bottom to
    top are exactly the multithreaded runs (paper, Section 4, Figs. 5
    and 6).

    This module materializes the whole lattice — what the paper does for
    presentation and what small programs need for run enumeration. The
    predictive analyzer does {e not} use it; it keeps only one frontier
    level ([Predict.Online]). *)

open Trace

type node = {
  id : int;
  cut : int array;
  state : Pastltl.State.t;
  level : int;  (** sum of the cut *)
}

type edge = { src : int; dst : int; label : Message.t }

type t

exception Too_large of int
(** Raised by {!build} when the node budget is exceeded; carries the
    budget. *)

val build : ?max_nodes:int -> Computation.t -> t
(** Breadth-first, level by level, on the {!Frontier} engine: cuts are
    interned in a packed arena. [max_nodes] defaults to [200_000].
    @raise Too_large when the lattice exceeds the budget. *)

val computation : t -> Computation.t
val node_count : t -> int
val edge_count : t -> int
val node : t -> int -> node
val bottom : t -> node
val top : t -> node option
(** The unique maximal cut, present whenever the computation is finite
    (always, here). [None] only for the degenerate empty case is not
    possible — the bottom cut always exists — so this is [Some] unless
    the lattice was truncated. *)

val nodes : t -> node list
(** All nodes, by level then lexicographic cut. *)

val level : t -> int -> node list
(** Nodes at one level (empty when out of range). *)

val level_count : t -> int
(** Number of nonempty levels = total events + 1 when complete. *)

val max_width : t -> int
(** The widest level — the frontier memory bound of the online
    analyzer. *)

val successors : t -> node -> (Message.t * node) list
val predecessors : t -> node -> (Message.t * node) list

val runs : ?max_runs:int -> t -> Message.t list list
(** Every bottom-to-top path, i.e. every multithreaded run, each as its
    event sequence. [max_runs] defaults to [100_000].
    @raise Too_large when there are more runs than the budget. *)

val run_count : t -> int
(** Number of runs (paths), by dynamic programming — no enumeration.
    Additions saturate at [max_int] (an independent 2×40 grid already
    has C(80,40) ≈ 1.08e23 paths); see {!run_count_info}. *)

val run_count_info : t -> int * bool
(** [(run_count, saturated)] — [saturated] is [true] when the count hit
    the [max_int] ceiling and is therefore a lower bound, not exact. *)

val run_count_saturated : t -> bool

val states_of_run : t -> Message.t list -> Pastltl.State.t list
(** The global-state sequence a run induces, starting from the initial
    state; length = run length + 1. *)

val pp : Format.formatter -> t -> unit
(** Level-by-level rendering in the style of the paper's Fig. 5/6:
    each node as [<v1,v2,...>] over the computation's variables. *)

val to_dot : ?highlight:(node -> bool) -> t -> string
(** Graphviz rendering: one box per consistent cut labeled with its
    global state, one edge per event, bottom at the top as in the
    paper's figures. [highlight] paints matching nodes (e.g. violating
    cuts) red. *)

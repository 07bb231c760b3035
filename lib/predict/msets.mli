(** Interned monitor-state sets and the automaton over them.

    The online observer keeps, per lattice cut, the set of monitor
    states its paths reach.  Here every such set is interned to a dense
    id, and a transition of the lattice is one lookup in a lazily built
    table: (set id, letter) to set id, where the letter is the truth of
    the specification's atoms over the successor cut's global state.
    That is the paper's remark (Section 4) that with a finite-state
    monitor "one can analyze all the multithreaded runs in parallel, as
    the computation lattice is built", with the automaton over sets
    built on demand: a missing entry steps the compiled monitor over
    every state of the set and interns the result.  Unions of two paths
    meeting at one cut are memoized the same way.

    A letter is the atoms' truth as a bit mask when the specification
    has at most [Sys.int_size - 1] atoms, and an interned id otherwise.

    Ids stay valid until {!compact}, which keeps only the sets and
    letters its roots name, renumbers them, and empties both memo
    tables.  The caller compacts when {!population} outgrows what its
    live frontier needs, so the tables follow the frontier, not the
    stream's length. *)

type t

val create : Pastltl.Monitor.compiled -> t

val narrow : t -> bool
(** Letters are bit masks: bit [a] is the truth of atom [a]. *)

val intern_letter : t -> bool array -> int
(** The letter of these atom values, for a specification that is not
    {!narrow}; the array is copied when it is new. *)

val of_states : t -> Pastltl.Monitor.state list -> int
(** The id of the set holding these states (duplicates allowed). *)

val step : t -> int -> int -> int
(** [step t s l] is the set of every state of [s] stepped over letter
    [l]. *)

val union : t -> int -> int -> int

val cardinal : t -> int -> int

val failing : t -> int -> bool
(** Some state of the set has verdict [false]. *)

val elements : t -> int -> Pastltl.Monitor.state list
(** In {!Pastltl.Monitor.compare_state} order. *)

val population : t -> int
(** Interned states, sets and letters plus memo entries. *)

val compact : t -> (set:(int -> int) -> letter:(int -> int) -> unit) -> unit
(** [compact t roots] calls [roots ~set ~letter] once; [set] and
    [letter] map every id still in use to its new id and must be
    applied to each of them.  Everything else is forgotten, and tables
    sized for far more than what is kept are given back. *)

val mem_words : t -> int
(** Approximate resident size in words: the interned states, sets and
    letters and both memo tables.  O(1). *)

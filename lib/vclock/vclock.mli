(** Multithreaded vector clocks (MVCs).

    An MVC is an [n]-dimensional vector of natural numbers, one slot per
    thread of a multithreaded system with a fixed number of threads.
    [v.(j)] counts the relevant events of thread [j] that the owner of
    the clock is aware of (paper, Section 3).

    Values are immutable: every operation returns a fresh clock, so MVCs
    can be stored in emitted messages without defensive copies. *)

type t = private int array
(** Read-only outside this module: [(v :> int array).(j)] is component
    [j], the read a per-thread loop makes in place (with [-opaque], as
    in dune's dev profile, {!get} is a real call per component).  Never
    write through the coercion: clocks are shared by reference. *)

val dim : t -> int
(** Number of threads the clock covers. *)

val zero : int -> t
(** [zero n] is the [n]-dimensional clock with all components 0.
    @raise Invalid_argument if [n <= 0]. *)

val get : t -> int -> int
(** [get v j] is component [j] (0-based).
    @raise Invalid_argument if [j] is out of bounds. *)

val set : t -> int -> int -> t
(** [set v j k] is [v] with component [j] replaced by [k].
    @raise Invalid_argument if [j] is out of bounds or [k < 0]. *)

val inc : t -> int -> t
(** [inc v j] increments component [j]; the [Vi\[i\] <- Vi\[i\] + 1] step
    of Algorithm A. *)

val max : t -> t -> t
(** Componentwise maximum, the join of the MVC lattice.
    @raise Invalid_argument on dimension mismatch. *)

val leq : t -> t -> bool
(** [leq v w] iff [v.(j) <= w.(j)] for all [j]. *)

val lt : t -> t -> bool
(** Strict order: [leq v w] and [v <> w]. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Total order (lexicographic) for use in sets and maps; unrelated to
    the causal order [leq]. *)

val concurrent : t -> t -> bool
(** [concurrent v w] iff neither [leq v w] nor [leq w v]. *)

val of_array : int array -> t
(** @raise Invalid_argument if empty or any component is negative. *)

val to_array : t -> int array

val of_list : int list -> t

val to_list : t -> int list

val sum : t -> int
(** Sum of all components — the lattice level of a cut with this clock. *)

val pp : Format.formatter -> t -> unit
(** Prints as [(v0,v1,...)]. *)

val to_string : t -> string
(** The text {!pp} prints, built without a formatter. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Append {!to_string}'s text, allocating nothing beyond the buffer's
    own growth. *)

val add_int : Buffer.t -> int -> unit
(** Append [string_of_int k] without building the string (for
    nonnegative [k]). *)

val of_string : string -> t
(** Inverse of {!to_string}.
    @raise Invalid_argument on malformed input. *)

val hash : t -> int

(** {1 Mutable clocks}

    Analyses that update clocks on every event keep them as plain
    [int array]s and join them in place; a clock that leaves the
    analysis (in a message, a report or an accessor's result) is frozen
    into an immutable {!t} by copying. *)

val join_into : int array -> int array -> own:int -> bool
(** [join_into dst src ~own] sets [dst] to the componentwise maximum of
    [dst] and [src], in place, and tells whether a component other than
    [own] rose (pass [~own:(-1)] to ask about any component).  [src] is
    either as wide as [dst] or [[||]], which stands for the zero clock;
    the widths are not checked. *)

val assign : int array -> int array -> int array
(** [assign dst src] sets [dst] to [src] and returns it, copying in place
    unless [dst] is [[||]] (the zero clock), when it returns a fresh copy
    of [src].  [dst] is either as wide as [src] or [[||]]. *)

val freeze : int array -> t
(** An immutable copy of a mutable clock.  The caller guarantees what
    {!of_array} would check: a nonempty array of non-negative
    components. *)

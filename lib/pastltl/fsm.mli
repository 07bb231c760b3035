(** Explicit finite-state-machine synthesis for past-time LTL.

    The paper observes (Section 4) that "if the property to be checked
    can be translated into a finite state machine (FSM) ... then one can
    analyze all the multithreaded runs in parallel, as the computation
    lattice is built", storing one FSM state per lattice cut. Past-time
    LTL always admits such a translation: a monitor state is a vector of
    subformula truth values, so at most [2^|φ|] states exist, and the
    reachable ones are usually a handful.

    Synthesis enumerates the reachable monitor states over the abstract
    alphabet of {e atom valuations} (one bit per distinct predicate), so
    FSM stepping replaces O(|φ|) monitor recomputation with predicate
    evaluation plus one table lookup — the ablation benchmark E11
    measures the difference. *)

type t

val synthesize : ?max_states:int -> Formula.t -> t
(** [max_states] (default [4096]) bounds the reachable-state exploration.
    @raise Invalid_argument if the formula has more than 20 distinct
    atoms (the alphabet would exceed [2^20]) or exploration exceeds
    [max_states]. *)

val formula : t -> Formula.t
val atoms : t -> Predicate.t list
(** Distinct atomic predicates, in bit order (bit [i] of a valuation is
    the truth of atom [i]). *)

val state_count : t -> int

val initial : t -> int -> int
(** [initial fsm letter]: the state entered on the initial global
    state. *)

val next : t -> int -> int -> int
(** [next fsm state letter]. *)

val verdict : t -> int -> bool

val run : t -> State.t list -> bool list
(** Verdicts along a trace (same length). *)

val minimize : t -> t
(** Moore partition refinement over (verdict, transitions); also drops
    unreachable states. The result accepts the same traces. *)

val pp : Format.formatter -> t -> unit
(** Transition table, one line per state. *)

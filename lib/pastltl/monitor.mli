(** Synthesized online monitors for past-time LTL (Havelund–Roşu style).

    {!compile} enumerates the subformulas bottom-up and resolves each
    one's children to slot indices, once; a monitor state is
    the vector of their truth values at the current trace point, so
    {!step} is O(|φ|) per state and the state is O(|φ|) bits — the
    compact per-cut summary the paper stores in the computation lattice
    ("the state of the FSM or of the synthesized monitor together with
    each global state", Section 4).

    Monitor states are ordinary immutable values with structural
    equality, so the predictive analyzer can keep {e sets} of them per
    lattice cut. *)

type compiled

val compile : Formula.t -> compiled
val formula : compiled -> Formula.t
val width : compiled -> int
(** Number of distinct subformulas = monitor state width. *)

type state
(** Truth values of all subformulas at the current point. *)

val init : compiled -> State.t -> state
(** Monitor state on the initial global state. *)

val step : compiled -> state -> State.t -> state
(** Advance by one global state. *)

val init_with : compiled -> atom:(Predicate.t -> bool) -> state
(** Like {!init} but with an arbitrary atom oracle instead of a global
    state — used by {!Fsm} to enumerate the monitor over abstract atom
    valuations. *)

val step_with : compiled -> state -> atom:(Predicate.t -> bool) -> state

val atoms : compiled -> Predicate.t array
(** The formula's distinct atoms, in subformula order: the indices
    {!init_atoms} and {!step_atoms} read their truth values at. *)

val init_atoms : compiled -> bool array -> state
(** {!init} given the truth value of every atom ([values.(a)] for
    [(atoms c).(a)]) — one evaluation per atom, shared by every monitor
    state stepped over the same global state. *)

val step_atoms : compiled -> state -> bool array -> state

val verdict : compiled -> state -> bool
(** Truth of the whole formula at the current point; a safety violation
    is a reachable state with verdict [false]. *)

val state_to_string : state -> string
(** The state as a bit string (["0101"]), one character per subformula —
    a stable textual form for checkpoints and logs. *)

val state_of_string : compiled -> string -> state option
(** Inverse of {!state_to_string} against a compiled monitor; [None]
    when the width disagrees with [compile]'s subformula count or a
    character is not ['0']/['1'] — a checkpoint written for a different
    specification can never silently restore. *)

val compare_state : state -> state -> int
val hash_state : state -> int
(** A hash over every subformula's bit, consistent with structural equality. *)

(** Direct (declarative) semantics of past-time LTL over a finite trace of
    states — the ground truth the synthesized {!Monitor} is tested
    against. Computed bottom-up per subformula in O(|φ|·T). *)

val eval : Formula.t -> State.t array -> bool array
(** [eval f trace] gives [f]'s truth value at every index of [trace].
    @raise Invalid_argument on an empty trace. *)

val first_violation : Formula.t -> State.t list -> int option
(** Index of the first state falsifying [f], if any — the safety-checking
    view: a trace is accepted iff [f] holds at every state. *)

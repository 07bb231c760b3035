(** Liveness-violation prediction (paper, Section 4, last paragraph).

    The idea sketched in the paper: search the computation lattice for
    paths of the form [u·v] where the global state reached by [u] equals
    the state reached by [u·v]; the system could then plausibly repeat
    [v] forever, so check the infinite word [u·v{^ω}] against the
    liveness property (Markey–Schnoebelen: LTL on an ultimately periodic
    word is decidable in polynomial time). *)

open Trace

(** Future-time LTL for liveness specifications. *)
type fformula =
  | FTrue
  | FFalse
  | FAtom of Pastltl.Predicate.t
  | FNot of fformula
  | FAnd of fformula * fformula
  | FOr of fformula * fformula
  | FNext of fformula
  | FEventually of fformula
  | FAlways of fformula
  | FUntil of fformula * fformula

val eval_lasso :
  fformula -> prefix:Pastltl.State.t list -> cycle:Pastltl.State.t list -> bool
(** Whether the infinite word [prefix · cycle{^ω}] satisfies the formula
    at its first position. [prefix] may be empty; [cycle] must not be.
    @raise Invalid_argument on an empty cycle. *)

type lasso = {
  prefix : Message.t list;  (** the events of [u] *)
  cycle : Message.t list;  (** the events of [v], nonempty *)
  prefix_states : Pastltl.State.t list;  (** states along [u], initial first *)
  cycle_states : Pastltl.State.t list;  (** states along [v], excluding the repeat *)
}

val find_lassos : ?max_lassos:int -> Observer.Lattice.t -> lasso list
(** All (capped) pairs of lattice nodes with equal global state connected
    by a path, each yielding one candidate lasso. *)

val check :
  ?max_lassos:int -> spec:fformula -> Observer.Lattice.t -> lasso option
(** First candidate lasso whose [u·v{^ω}] violates the liveness
    specification, if any. *)

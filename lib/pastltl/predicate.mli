(** Atomic state predicates: comparisons between integer expressions over
    the observed global state, e.g. [x > 0] or [y > z] (paper,
    Section 2.3). *)

open Trace

type aexp =
  | Const of int
  | Var of Types.var
  | Neg of aexp
  | Add of aexp * aexp
  | Sub of aexp * aexp
  | Mul of aexp * aexp

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t = { cmp : cmp; lhs : aexp; rhs : aexp }

val make : cmp -> aexp -> aexp -> t
val holds : t -> State.t -> bool

val compile : slot:(Types.var -> int) -> t -> int array -> bool
(** [compile ~slot p] is {!holds} over a state stored as an [int array]
    indexed by [slot x] for every variable [x] of [p]; [slot] is called
    once per variable occurrence, here. *)

val vars : t -> Types.var list
(** Variables mentioned, sorted, unique — these are the {e relevant}
    variables the instrumentation must watch. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

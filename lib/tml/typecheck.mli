(** Static well-formedness checks for TML programs.

    Checks, per program: no duplicate shared declarations, no duplicate
    thread names, at least one thread; per thread: every variable is
    either a declared shared variable or a previously declared local,
    locals are not redeclared and do not shadow shared variables, and
    [choose]/[nop] arities are positive. Lock and condition names live in
    their own namespaces and need no declaration. *)

type error = { thread : string option; message : string }

val check : Ast.program -> (unit, error list) result
(** All errors, not just the first. *)

val check_exn : Ast.program -> unit
(** @raise Invalid_argument with a rendered error list. *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val shared_vars : Ast.program -> string list
(** Declared shared variables, in declaration order. *)

(** Pretty-printer for TML, producing concrete syntax that {!Parser}
    accepts ([Parser.parse_program (Pretty.program_to_string p)] equals
    [p] up to [Seq]/[Skip] normalization — a property the test suite
    checks). *)

val pp_unop : Format.formatter -> Ast.unop -> unit
val pp_binop : Format.formatter -> Ast.binop -> unit

val expr_to_string : Ast.expr -> string
val stmt_to_string : Ast.stmt -> string
val program_to_string : Ast.program -> string

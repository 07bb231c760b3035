(** Compiler from TML abstract syntax to {!Bytecode}.

    Expressions are compiled left-to-right; [&&]/[||] short-circuit via
    jumps and always leave 0 or 1 on the stack; [sync (m) { s }] becomes
    [Acquire m; s; Release m]. Shared variables are numbered once per
    program, in declaration order, and global loads and stores carry the
    id. The result is un-instrumented; pass it to
    {!Instrument.instrument} to obtain the image the monitored run uses. *)

val compile : Ast.program -> Bytecode.image
(** @raise Invalid_argument if the program fails {!Typecheck.check}. *)

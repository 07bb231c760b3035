(** Stack bytecode for TML, mirroring the paper's setting where the
    analyzed program is available in compiled form and instrumentation is
    a {e code-to-code} transformation (paper, Sections 1 and 4.1).

    Instructions are split into {e silent} ones (stack, locals, jumps —
    thread-private, never a scheduling point) and {e observable} ones
    (shared accesses, synchronization, internal no-ops — each is one
    atomic event and one scheduling point). The instrumented variants
    [Instr_*] additionally execute Algorithm A atomically with the
    access; {!Instrument.instrument} introduces them.

    Shared variables have dense ids, assigned once per program:
    {!Compile} numbers the program's shared variables and
    {!Instrument.instrument} appends the dummy lock and notify variables
    of Section 3.1.  Opcodes that touch a variable carry its id next to
    its name (the name is for printing), so the machine indexes its
    globals and Algorithm A's clocks by id. *)

open Trace

type instr =
  (* silent *)
  | Push of int
  | Pop
  | Load_local of int
  | Store_local of int
  | Prim of Ast.binop
      (** pops [b] then [a], pushes [a op b]; not used for [And]/[Or],
          which compile to jumps *)
  | Prim1 of Ast.unop
  | Jump of int  (** absolute target *)
  | Jump_if_zero of int
  | Jump_if_nonzero of int
  | Choose_jump of int list  (** scheduler picks one target *)
  (* observable, un-instrumented *)
  | Load_global of Types.var * int  (** name and variable id *)
  | Store_global of Types.var * int
  | Internal  (** the [nop] event *)
  | Acquire of string
  | Release of string
  | Wait_cond of string
  | Notify_cond of string
  (* observable, instrumented: same semantics plus Algorithm A *)
  | Instr_load of Types.var * int
  | Instr_store of Types.var * int
  | Instr_acquire of string * int  (** lock and the id of its dummy variable *)
  | Instr_release of string * int
  | Instr_wait of string * int  (** condition and the id of its dummy variable *)
  | Instr_notify of string * int
  | Halt

type image = {
  thread_names : string array;
  code : instr array array;  (** one code vector per thread *)
  nlocals : int array;  (** local-slot count per thread *)
  shared_init : (Types.var * Types.value) list;
  vars : Types.var array;
      (** variable id -> name; ids [0 .. List.length shared_init - 1] are
          the shared variables in [shared_init] order, any further ids the
          dummy variables an instrumented image writes *)
  instrumented : bool;
}

val nthreads : image -> int

val is_silent : instr -> bool
val is_observable : instr -> bool

val instr_count : image -> int
(** Total instructions over all threads. *)

val validate : image -> (unit, string) result
(** Checks jump targets in range, local slots in range, [Halt]-terminated
    code vectors, that [instrumented] matches the opcodes used, and that
    variable ids are in range and name the variable their opcode (or
    [shared_init] position) does. *)

val pp_instr : Format.formatter -> instr -> unit
val pp_image : Format.formatter -> image -> unit

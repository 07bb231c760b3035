(** The instrumentation pass (paper, Sections 1, 3.1, 4.1).

    Rewrites a compiled image so that every shared-variable access and
    every synchronization operation executes Algorithm A atomically with
    the operation itself:

    - [Load_global x]  becomes [Instr_load x]   (read event of [x]);
    - [Store_global x] becomes [Instr_store x]  (write event of [x]);
    - [Acquire l]/[Release l] become [Instr_acquire]/[Instr_release],
      each additionally a {e write} of the dummy variable
      [Types.lock_var l] — the happens-before edge between a
      synchronized-block exit and the next entry;
    - [Wait_cond c]/[Notify_cond c] become [Instr_wait]/[Instr_notify]:
      the notifier writes [Types.notify_var c] before notifying, the
      woken thread writes it after waking.

    The dummy variables get variable ids after the program's shared
    variables (see {!Bytecode}), so the machine emits their writes
    without building their names.

    The transformation never changes program values or control flow —
    a differential test runs both images under the same schedule and
    compares final states. *)

val instrument : Bytecode.image -> Bytecode.image
(** @raise Invalid_argument if the image is already instrumented. *)

val instrument_program : Ast.program -> Bytecode.image
(** [instrument_program p = instrument (Compile.compile p)]. *)

val sync_variables : Bytecode.image -> Trace.Types.var list
(** The dummy shared variables the instrumented image can write (lock and
    notify variables), sorted; useful for sizing observer state. *)

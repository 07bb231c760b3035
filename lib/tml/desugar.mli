(** Lowering of dynamic-thread statements onto the fixed thread pool.

    TML threads all exist up front (the paper's fixed-thread setting),
    but [spawn]/[join] give programs the dynamic-creation {e behaviour}
    of the paper's Section 2 extension:

    - every thread targeted by some [spawn] becomes {e dormant}: its body
      is prefixed with a gate loop spinning on a dummy synchronization
      variable, so it produces no program events until activated;
    - [spawn t] is a write of [t]'s gate variable — the spawner's past
      happens-before everything the child does (exactly the edge
      {!Mvc.Dynamic.spawn} creates for truly dynamic populations);
    - every thread targeted by some [join] appends a write of its done
      variable; [join t] spins reading it, so the child's past
      happens-before the joiner's continuation.

    The gate/done variables live in the synchronization namespace
    ({!Trace.Types.notify_var}), so they are invisible to relevance
    filters and treated as synchronization by the race detector.

    A [spawn] that never executes leaves the dormant thread spinning
    (fuel exhaustion rather than deadlock), matching an orphan thread. *)

val desugar : Ast.program -> Ast.program
(** The result contains no [Spawn]/[Join] statements and declares the
    gate/done variables it introduced. Programs without [spawn]/[join]
    are returned unchanged. Run {!Typecheck.check} {e before} this pass
    for user-level diagnostics; the output also typechecks. *)

val uses_dynamic_threads : Ast.program -> bool

(** Shared primitive types of the whole system.

    Threads are numbered [0 .. nthreads-1]. Shared variables are named by
    strings. Synchronization objects (locks, condition variables) are
    lowered to writes of {e dummy shared variables} (paper, Section 3.1);
    dummy variables live in a reserved namespace so that analyses can
    distinguish them from program data. *)

type tid = int
(** Thread identifier, [0]-based. *)

type var = string
(** Shared-variable name. *)

type value = int
(** All TML values are integers; booleans are [0]/[1]. *)

val lock_var : string -> var
(** [lock_var l] is the dummy shared variable standing for lock [l]:
    acquiring or releasing [l] is instrumented as a write of this
    variable (paper, Section 3.1). *)

val notify_var : string -> var
(** Dummy variable written by notifier and woken waiter of a condition
    variable, creating the expected happens-before edge. *)

val read_var : string -> var
(** [read_var x] is the dummy variable name carrying a {e read} of [x]
    on the wire.  Messages only have one variable slot; when a relevance
    filter reports read events (the streaming race and atomicity engines
    need them), the emitter mangles the variable so consumers can tell a
    read of [x] from a write of [x].  Same reserved-namespace idiom as
    {!lock_var} (paper, Section 3.1). *)

val as_read : var -> string option
(** [as_read v] is [Some x] when [v] is [read_var x], [None] otherwise.
    Allocates only in the [Some] case. *)

val as_lock : var -> string option
(** [as_lock v] is [Some l] when [v] is [lock_var l] for a non-empty
    [l], [None] otherwise.
    Allocates only in the [Some] case. *)

val is_sync_var : var -> bool
(** True for variables created by {!lock_var} or {!notify_var}. *)

val is_data_var : var -> bool
(** Negation of {!is_sync_var}. *)

val pp_tid : Format.formatter -> tid -> unit
(** Prints as [T0], [T1], ... *)

val pp_var : Format.formatter -> var -> unit

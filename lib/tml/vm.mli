(** The TML virtual machine.

    Executes a {!Bytecode.image} under a {!Sched} scheduler. Scheduling
    quantum: a {e step} runs one thread through its pending silent
    instructions up to and including exactly one observable instruction
    (shared access, synchronization, or internal no-op) — the atomic,
    instantaneous shared-memory events the paper's sequential consistency
    model assumes (Section 2.1). Thread-local computation is never a
    scheduling point, which keeps the schedule space equal to the space
    of distinct event interleavings.

    Between steps every live thread is {e settled}: its program counter
    rests on an observable instruction (or the thread has halted), so
    enabledness — can this thread take a step now? — is decidable by
    inspection ([Acquire] of a foreign-held lock and waiting threads are
    not runnable).

    If the image is instrumented, every observable instruction drives
    Algorithm A through an {!Mvc.Emitter} and relevant events are emitted
    as messages, as in the paper's Fig. 4 pipeline. *)

open Trace

type outcome =
  | Completed
  | Deadlocked of Types.tid list  (** the non-halted (blocked) threads *)
  | Runtime_error of { tid : Types.tid; message : string }
  | Fuel_exhausted

type run_result = {
  outcome : outcome;
  exec : Exec.t option;  (** recorded execution; [Some] iff instrumented *)
  messages : Message.t list;  (** emitted [⟨e, i, V⟩]; [\[\]] if plain *)
  final : (Types.var * Types.value) list;  (** final shared state, sorted *)
  steps : int;  (** observable steps taken *)
}

type t

exception Vm_error of Types.tid * string
(** Internal runtime fault; escapes only from {!val-create} helpers used
    by the reference interpreter, never from {!step}/{!run} (those record
    it as a [Runtime_error] outcome). *)

val apply_binop : Types.tid -> Ast.binop -> int -> int -> int
(** Arithmetic/comparison semantics shared with {!Interp}.
    @raise Vm_error on division or modulo by zero. *)

val create :
  ?clock:Clock.Spec.backend ->
  ?relevance:Mvc.Relevance.t ->
  ?sink:(Message.t -> unit) ->
  sched:Sched.t ->
  Bytecode.image ->
  t
(** [relevance] defaults to {!Mvc.Relevance.all_writes}; it (and [sink]
    and [clock], the Algorithm A clock backend, default dense) matter
    only for instrumented images.
    @raise Invalid_argument if the image fails {!Bytecode.validate}. *)

val runnable : t -> Types.tid list
(** Threads able to take a step now, ascending; empty when the run is
    over (all halted, deadlocked, or a runtime error occurred).  The
    machine maintains this set in an array, rebuilt only after a step
    that can change it: lock or wait/notify traffic, an error, or the
    stepped thread halting, waiting or reaching an acquire. *)

val rescan_runnable : t -> Types.tid list
(** {!runnable} recomputed from every thread's state, ignoring the
    maintained set: the reference it is tested against. *)

val finished : t -> outcome option
(** [Some] once the machine can make no further progress. *)

val step : t -> Types.tid -> unit
(** Advance one thread by one observable step.
    @raise Invalid_argument if the thread is not runnable. *)

val global_value : t -> Types.var -> Types.value
(** Current value of a shared variable. *)

val steps_taken : t -> int

val result : t -> run_result
(** Snapshot; normally called once {!finished} is [Some]. If called
    mid-run, [outcome] is [Fuel_exhausted]. *)

val run : ?fuel:int -> t -> run_result
(** Drive the machine with its scheduler until it finishes or [fuel]
    observable steps (default [100_000]) have been taken. *)

val run_image :
  ?clock:Clock.Spec.backend ->
  ?fuel:int ->
  ?relevance:Mvc.Relevance.t ->
  sched:Sched.t ->
  Bytecode.image ->
  run_result
(** [create] followed by [run]. *)

val run_program :
  ?clock:Clock.Spec.backend ->
  ?fuel:int ->
  ?relevance:Mvc.Relevance.t ->
  sched:Sched.t ->
  Ast.program ->
  run_result
(** Compile, instrument and run a source program. *)

val pp_outcome : Format.formatter -> outcome -> unit

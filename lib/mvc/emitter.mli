(** Instrumentation runtime: couples Algorithm A with the event log.

    The TML virtual machine calls {!on_internal}, {!on_read} and
    {!on_write} from its instrumentation hooks. The emitter records the
    flat observed execution (for oracles and for the JPaX baseline),
    drives Algorithm A, and forwards messages [⟨e, i, V⟩] for relevant
    events to the observer-side sink, exactly as JMPaX's instrumented
    bytecode writes to its socket (paper, Section 4.1). *)

open Trace

type t

val create :
  ?clock:Clock.Registry.backend ->
  ?vars:Types.var array ->
  nthreads:int ->
  init:(Types.var * Types.value) list ->
  relevance:Relevance.t ->
  ?sink:(Message.t -> unit) ->
  unit ->
  t
(** [sink] is invoked synchronously for every emitted message; defaults
    to a no-op (messages are still accumulated and returned by
    {!finish}). [vars] numbers variables for {!on_read_id} and
    {!on_write_id}: id [i] is [vars.(i)] (default: none). [clock]
    exists only for the benchmark ledger's per-backend probe, whose one
    backend is dense, and changes nothing; it goes when the ledger
    retires that probe.
    @raise Invalid_argument if [vars] lists a name twice. *)

val on_internal : t -> Types.tid -> unit
val on_read : t -> Types.tid -> Types.var -> Types.value -> unit
val on_write : t -> Types.tid -> Types.var -> Types.value -> unit

val on_read_id : t -> Types.tid -> int -> Types.value -> unit
val on_write_id : t -> Types.tid -> int -> Types.value -> unit
(** [on_read] / [on_write] of the variable with the given id in the
    [vars] table passed to {!create}. *)

val invariant : t -> bool
(** The underlying algorithm's internal-consistency check (useful for
    assertions in tests). *)

val finish : t -> Exec.t * Message.t list
(** The recorded execution and all emitted messages, in emission order.
    The emitter can keep being used afterwards; [finish] snapshots. *)

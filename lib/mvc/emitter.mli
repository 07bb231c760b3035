(** Instrumentation runtime: couples Algorithm A with the event log.

    The TML virtual machine calls {!on_internal}, {!on_read} and
    {!on_write} from its instrumentation hooks. The emitter records the
    flat observed execution (for oracles and for the JPaX baseline),
    drives Algorithm A, and forwards messages [⟨e, i, V⟩] for relevant
    events to the observer-side sink, exactly as JMPaX's instrumented
    bytecode writes to its socket (paper, Section 4.1).

    The algorithm may run over any clock backend ({!Clock.Registry});
    emitted messages always carry dense clocks, so sinks, the wire
    format and the observer are unaffected by the choice.  The dense
    backend runs the in-place toplevel {!Algorithm} on variable ids;
    other backends run {!Algorithm.Make}. *)

open Trace

type t

val create :
  ?clock:Clock.Spec.backend ->
  ?vars:Types.var array ->
  nthreads:int ->
  init:(Types.var * Types.value) list ->
  relevance:Relevance.t ->
  ?sink:(Message.t -> unit) ->
  unit ->
  t
(** [sink] is invoked synchronously for every emitted message; defaults
    to a no-op (messages are still accumulated and returned by
    {!finish}). [clock] selects the Algorithm A backend (default:
    dense). [vars] numbers variables for {!on_read_id} and
    {!on_write_id}: id [i] is [vars.(i)] (default: none).
    @raise Invalid_argument if [vars] lists a name twice and the backend
    is dense. *)

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

val backend_name : t -> string
(** Name of the clock backend driving this emitter. *)

val message_count : t -> int

val finish : t -> Exec.t * Message.t list
(** The recorded execution and all emitted messages, in emission order.
    The emitter can keep being used afterwards; [finish] snapshots. *)

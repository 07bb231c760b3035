(** Relevance filters (paper, Section 2.3).

    Only a subset [R ⊆ E] of events is reported to the observer; the
    relevant causality is [⊳ = ≺ ∩ (R × R)]. In JMPaX the instrumentation
    module extracts the shared variables mentioned by the specification
    and declares {e writes of those variables} relevant (Section 4.1);
    other policies are useful for testing and for race analysis. *)

open Trace

type t

val writes_of_vars : Types.var list -> t
(** The JMPaX policy: writes of the listed variables are relevant. *)

val all_writes : t
(** Every write of a data variable is relevant. *)

val all_accesses : t
(** Every read or write of a data variable is relevant (used by the
    predictive race detector, which needs read events too). *)

val all_events : t
(** Every read or write is relevant, {e including} the dummy
    synchronization variables — the relevance the streaming race and
    atomicity engines need, since they reconstruct the sync-only
    happens-before from the message stream itself.  The emitter mangles
    read messages through {!Trace.Types.read_var} so the two access
    kinds stay distinguishable on the wire. *)

val nothing : t
(** No event is relevant; Algorithm A still tracks causality. *)

val custom : (Event.kind -> bool) -> t

val is_relevant : t -> Event.kind -> bool

val on_event : t -> Event.t -> bool
(** {!is_relevant} applied to the event's kind. *)

val per_variable : t -> bool
(** Whether {!is_relevant} depends only on an access's kind and
    variable, never on its value (every filter but {!custom}), so it can
    be decided once per variable. *)

val variables : t -> Types.var list option
(** The variable list for {!writes_of_vars} filters, [None] otherwise. *)

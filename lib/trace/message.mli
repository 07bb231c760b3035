(** Messages [⟨e, i, V⟩] emitted by Algorithm A to the observer.

    Only {e relevant} events are emitted (in JMPaX, writes of variables
    that the monitored specification mentions). The message carries the
    state-update information — the variable written and its new value —
    plus the emitting thread and its MVC at emission time. By Theorem 3,
    for two messages [m], [m'] we have [e ⊳ e'] iff
    [Vclock.get m.mvc m.tid <= Vclock.get m'.mvc m.tid]. *)

type t = {
  eid : int;  (** observed-execution position, carried for traceability *)
  tid : Types.tid;  (** the [i] of [⟨e, i, V⟩] *)
  var : Types.var;
  value : Types.value;
  mvc : Vclock.t;  (** the emitting thread's MVC [V_i] after the update *)
}

val make :
  eid:int -> tid:Types.tid -> var:Types.var -> value:Types.value -> mvc:Vclock.t -> t

val seq : t -> int
(** [seq m = Vclock.get m.mvc m.tid]: the index (1-based) of this relevant
    event among the relevant events of its thread. *)

val none : t
(** A message no thread sends (eid [-1], no variable): the mark of an
    empty slot in arrays of messages, tested with [==]. *)

val causally_precedes : t -> t -> bool
(** The Theorem 3 test: [causally_precedes m m'] iff [e ⊳ e'].
    Reflexive on distinct messages of the same thread ordering; returns
    [false] on [m = m'] only when comparing a message with itself is
    meaningless, so callers should treat it as [e ⊳ e'] for [e ≠ e']. *)

val concurrent : t -> t -> bool
(** Neither causally precedes the other. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

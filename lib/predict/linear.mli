(** The one front end of the linear-time analyses (race, atomicity).

    Both analyses need the same thing from the message stream: every
    data access with the sync-only clock ({!Syncclock}) it carries in a
    causal linearization, and the lock traffic in that order.  This
    module computes that once and hands it to whichever cores are
    attached as a {!sink}.  Streaming, a causal delivery buffer
    ({!Causal}) linearizes arbitrary arrival orders; offline,
    {!replay} feeds a recorded execution in its observed order with no
    buffer.  Feeding accesses in {e any} linearization consistent with
    the all-events message causality yields the same clocks as the
    observed order: writes of one sync variable are totally ordered by
    their absorb-and-update cycle, so every causal linearization replays
    them in the same order. *)

open Trace

type sink = {
  lock : Types.tid -> string -> Types.value -> unit;
      (** A write to lock [l]'s variable, before its clock update (value
          1 acquires, anything else releases). *)
  access : Types.tid -> Types.var -> is_write:bool -> eid:int -> Syncclock.epoch -> unit;
      (** A data access with its sync-only clock. *)
}

val fan_out : sink list -> sink

type t

val create : ?start:Causal.snapshot -> nthreads:int -> unit -> t
(** [start] seeds the delivery buffer mid-stream (the degrade handoff
    cut); the clocks still start at zero. *)

val feed : t -> sink -> Message.t -> unit
(** Buffer one message and hand every access it makes deliverable to the
    sink.  Raises what {!Causal.feed} raises. *)

val replay : Exec.t -> sink -> unit
(** The offline pass: a recorded execution's events in observed order. *)

val end_of_thread : t -> Types.tid -> unit
val finish : t -> unit
val nthreads : t -> int
val buffered : t -> int
(** Messages held now, waiting for an earlier message. *)

val mem_words : t -> int
(** The delivery buffer's words, {!Causal.mem_words}. *)

val missing : t -> (Types.tid * int) option
val next_index : t -> Types.tid -> int

(** {1 Checkpointing} *)

val write : string list ref -> t -> unit
(** The sync clocks, then the delivery buffer: [delivered] prefixes,
    [ended] flags, [progress <peak buffered>] and the [pending]
    messages. *)

val read : what:string -> Engine.Snapshot.reader -> t
(** Reads what {!write} wrote, through {!Engine.Snapshot}'s strict
    readers.
    @raise Invalid_argument on a malformed section, or when a clock's
    width or the number of thread clocks disagrees with the delivery
    buffer's thread count. *)

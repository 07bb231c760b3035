(** Synchronization-only vector clocks, shared by the predictive race
    and atomicity analyses.

    Every event advances its thread's own component (so accesses are
    distinct points in the causal order), but cross-thread edges come
    only from the dummy synchronization variables of Section 3.1 — data
    accesses contribute no edges, otherwise the conflicting pair under
    test would order itself.

    Clocks live in place: one mutable array per thread and per sync
    variable ([va], [vw]), joined without allocation.  A data access is
    stamped with an {!epoch}: the thread's immutable {e base} clock plus
    its own counter.  The base is re-copied only when a join since the
    last copy raised a component other than the thread's own, so a run
    of accesses between synchronizations shares one base. *)

open Trace

type t

type epoch
(** The sync-only clock of one data access.  Immutable; analyses keep
    epochs by reference. *)

val get : epoch -> int -> int
(** Component [u] of the access's clock: the thread's own counter for
    its own component, the base clock's otherwise. *)

val to_vclock : epoch -> Vclock.t
(** The full clock, built on demand (reports and snapshot lines). *)

val of_vclock : Types.tid -> Vclock.t -> epoch
(** The epoch of an access by [tid] whose full clock is given (restore). *)

val create : nthreads:int -> t

val sync : t -> Types.tid -> Types.var -> is_read:bool -> unit
(** Synchronization traffic on a sync variable: ticks the thread and
    joins in place (a write absorbs [va(x)] and publishes the thread's
    clock to [va(x)] and [vw(x)]; a read absorbs [vw(x)] and joins the
    thread's clock into [va(x)]). *)

val access : t -> Types.tid -> epoch
(** A data access: ticks the thread and returns its epoch. *)

(** {1 Checkpointing} *)

val write : string list ref -> t -> unit
(** The [vi] line, then [va] and [vw] as counted [kv] lines sorted by
    variable (see {!Engine.Snapshot.push}). *)

val read : what:string -> Engine.Snapshot.reader -> nthreads:int -> t
(** [read ~what r] parses {!write}'s lines at once; applying the result
    to the thread count (known once the delivery buffer that follows is
    read) builds the clocks.
    @raise Invalid_argument on malformed lines, or unless there are
    [nthreads] thread clocks and every clock is [nthreads] wide. *)

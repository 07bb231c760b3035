(** Predictive atomicity-violation (block serializability) detection.

    The paper's causal abstraction supports more than state-property
    prediction; this module applies it to {e block atomicity}, the
    analysis line (jPredictor) that grew out of JMPaX. Every outermost
    [sync (l) { ... }] region is treated as a transaction. For two
    accesses [a1, a2] to the same variable inside one transaction and a
    {e remote} access [r] by another thread, the interleaving
    [a1; r; a2] is unserializable when the access kinds form one of the
    classic patterns (Lu et al.):

    - local read, remote {b write}, local read — stale re-read;
    - local write, remote {b write}, local read — lost local write;
    - local read, remote {b write}, local write — update from a stale read;
    - local write, remote {b read}, local write — dirty intermediate read.

    The violation is {e predicted} when [r] is causally concurrent
    (under the synchronization-only happens-before of {!Race}) with both
    [a1] and [a2] — some schedule of the observed computation places it
    between them, even if the observed run did not. A remote access
    protected by the same lock is ordered with the block and can never
    be flagged. *)

open Trace

type access_kind = Read | Write

type violation = {
  tid : Types.tid;  (** the transaction's thread *)
  lock : string;  (** the lock delimiting the transaction *)
  var : Types.var;
  first : int;  (** eid of [a1] *)
  second : int;  (** eid of [a2] *)
  remote : int;  (** eid of [r] *)
  remote_tid : Types.tid;
  pattern : access_kind * access_kind * access_kind;
      (** kinds of [a1], [r], [a2] *)
}

type report = {
  transactions : int;  (** outermost sync blocks analyzed *)
  violations : violation list;
      (** one representative per violation {e class}
          [(thread, lock, variable, pattern)], sorted by
          [(first, remote)] *)
}

(** {1 The core}

    Fed in causal order by the front end ({!Linear}). *)

module Core : sig
  type t

  val create : nthreads:int -> t

  val sink : ?max_violations:int -> ?metered:bool -> t -> Linear.sink
  (** [max_violations] (default [1000]) caps the classes recorded;
      [metered] counts new classes in [predict.atomicity.violations]. *)

  val transactions : t -> int
  val report : t -> report
  val violated : t -> bool

  val write : string list ref -> t -> unit
  (** The core as snapshot lines (lock depths, open blocks, frames,
      closed pairs, the access logs as per-observer views, classes);
      the transaction count is the caller's. *)

  val read : what:string -> nthreads:int -> transactions:int -> Engine.Snapshot.reader -> t
  (** @raise Invalid_argument on malformed lines or an out-of-range
      thread. *)

  val log_epochs : t -> (Types.tid * Syncclock.epoch) list
  (** Every live access-log entry with its log's owner.  The scans read
      an entry's components off its [base] and [own] in place, which
      is sound only while each entry is its owner's epoch. *)

  val log_lengths : t -> (Types.var * Types.tid * access_kind * int) list
  (** The live entries of each access log, by variable, owner and
      kind.  A log keeps what some observer can still match, so its
      length follows how far behind the slowest observer of its
      variable's scans is, not the stream's length. *)
end

val analyze : ?max_violations:int -> Exec.t -> report
(** Replays a recorded execution in O(events × threads) comparisons,
    plus O(threads × log events) binary searches per in-block access,
    without per-observer allocation.  Per-variable summaries — the
    latest in-block access per kind, the maximal closed-pair clock per
    (thread, lock, kinds), and one log of past accesses per (owner,
    kind) holding each access's clock by reference with one offset per
    observer thread — replace the historical all-pairs × all-remotes
    enumeration.  Violations are reported once per class with a
    representative [(a1, r, a2)] triple; [max_violations] (default
    [1000]) caps the classes recorded. *)

val serializable : report -> bool
val pattern_name : access_kind * access_kind * access_kind -> string

val pp_violation : Format.formatter -> violation -> unit
val pp_report : Format.formatter -> report -> unit

(** {1 Canonical verdict} *)

val verdict :
  classes:
    (Types.tid * string * Types.var * (access_kind * access_kind * access_kind)) list ->
  transactions:int ->
  string
(** The canonical one-line verdict ([predict.atomicity: ...]) shared by
    the offline pass and the streaming engine, byte-comparable across
    [jmpax check], [stream] and the serve sessions. *)

val verdict_of_report : report -> string

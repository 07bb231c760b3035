(** Predictive data-race detection.

    Uses the MVC machinery with the {e synchronization-only} causality:
    thread order plus lock/notify dummy-variable writes (paper,
    Section 3.1). Data accesses do not themselves create causal edges —
    otherwise the two halves of a candidate race would order each other —
    so two accesses to the same data variable, at least one a write,
    whose clocks are concurrent constitute a race that {e some} schedule
    can realize, even if the observed run ordered them safely. This is
    the data-race instantiation of the paper's prediction idea (its
    Section 1 names data-races as the motivating class). *)

open Trace

type access = {
  eid : int;
  tid : Types.tid;
  var : Types.var;
  is_write : bool;
  epoch : Syncclock.epoch;  (** sync-only clock at the access *)
}

type race = { first : access; second : access }
(** Ordered by observed position; clocks are concurrent. *)

type report = {
  races : race list;  (** representative pairs, capped at [max_races] *)
  pairs_found : int;  (** every pair detected, including unrecorded ones *)
  racy_vars : Types.var list;  (** distinct data variables involved, sorted *)
  accesses : int;  (** data accesses examined *)
}

(** {1 The core}

    Per variable, the latest write and read of each thread, fed in
    causal order by the front end ({!Linear}). *)

module Core : sig
  type t

  val create : ?max_races:int -> nthreads:int -> unit -> t
  (** [max_races] (default [10_000]) caps the pairs kept for the
      report; the streaming engine keeps none. *)

  val sink : ?metered:bool -> t -> Linear.sink
  (** [metered] counts pairs and racy variables in the [predict.race.*]
      metrics. *)

  val report : t -> report
  val violated : t -> bool

  val counts : t -> int * int
  (** Accesses examined and racy pairs found. *)

  val write : string list ref -> t -> unit
  (** The summaries as snapshot lines (racy variables, latest writes,
      latest reads); the counts are the caller's. *)

  val read :
    what:string -> nthreads:int -> accesses:int -> pairs:int -> Engine.Snapshot.reader -> t
  (** A core that keeps no pairs, from {!write}'s lines.
      @raise Invalid_argument on malformed lines, or a summary clock
      that is not [nthreads] wide. *)
end

val detect : ?max_races:int -> Exec.t -> report
(** Replays a recorded execution through {!Linear.replay} and the
    {!Core}: O(accesses × threads).  [max_races] (default [10_000]) caps
    the recorded pair list; [pairs_found] and [racy_vars] keep counting
    past the cap, and pairs past it are never built. *)

val race_free : report -> bool

val pp_report : Format.formatter -> report -> unit
(** Renders ["N racy pairs (M shown)"] when the recorded list was
    truncated at [max_races], so capped reports no longer under-count. *)

(** {1 Canonical verdict} *)

val verdict : racy_vars:Types.var list -> accesses:int -> string
(** The canonical one-line verdict ([predict.race: ...]) shared by the
    offline pass and the streaming engine, byte-comparable across
    [jmpax check], [stream] and the serve sessions. *)

val verdict_of_report : report -> string

(** Resource budgets and graceful degradation for the online analysis.

    The lattice sweep is worst-case exponential in cuts per level (the
    paper's two-level bound caps levels kept, not frontier width), so a
    single wide tenant could grow the observer until the kernel kills
    it.  This module supplies the three pieces that prevent that:

    - {b accounting}: {!usage} reads O(1) incremental counters off a
      live {!Predict.Engines} bundle (frontier cut count, total resident
      words);
    - {b limits}: what the front ends configure from
      [--max-frontier-cuts] (serve's [--memory-budget] is the daemon's
      admission control, not a per-bundle limit; messages held for
      causal delivery are bounded by [--max-buffered], which
      {!Driver} checks as backpressure, not here);
    - {b policy}: {!check} turns usage + limits into a typed {!breach},
      and the {!policy} chosen with [--on-overload] decides its fate —
      [Degrade] swaps the lattice engine for the linear-time engines at
      a clean causal boundary ({!Predict.Engines.degrade}), [Evict]
      checkpoints-then-drops the offending session, [Fail] stops the
      stream with the budget exit code.

    Degradation soundness (after Soueidi & Falcone, {e Sound Concurrent
    Traces for Online Monitoring}): once state is shed, the monitor may
    only claim what its remaining state supports.  The degraded bundle's
    fresh engines cover the stream suffix from the handoff cut, so every
    degraded verdict line and checkpoint carries an explicit
    [degraded(from=...,reason=...,at_event=N)] marker and is never
    presented as full-coverage. *)

(** What [--on-overload] does when a budget is crossed. *)
type policy =
  | Degrade  (** swap to the O(n) engines, keep streaming (marked) *)
  | Evict  (** checkpoint, then drop only the offender *)
  | Fail  (** stop the stream with the budget exit code *)

type limits = { max_frontier_cuts : int option }

val unlimited : limits
val is_unlimited : limits -> bool

val limits : ?max_frontier_cuts:int -> unit -> limits
(** @raise Invalid_argument on a limit below 1. *)

type usage = {
  frontier_cuts : int;
  mem_words : int;
}

val usage : Predict.Engines.t -> usage
(** O(1): reads maintained counters, never walks the state. *)

val observe : usage -> unit
(** Publish peak usage to the [budget.*] telemetry gauges (cheap no-op
    with metrics off). *)

type breach = Frontier_cuts of { cuts : int; limit : int }

val check : limits -> usage -> breach option
(** The crossed limit, if any; counts [budget.breaches] when metrics are
    on.  The one place a budget is checked: the stream driver calls it
    after every item. *)

val breach_reason : breach -> string
(** Stable token for markers and logs: ["frontier_budget"] — never
    contains spaces, commas or parentheses (it is embedded in the
    [degraded(...)] verdict marker). *)

val breach_message : breach -> string
(** Human-readable one-liner with the measured value and the limit. *)

val degradable : breach -> bool
(** Whether shedding the lattice engine can relieve this breach: always
    [true], since the frontier is the one budgeted quantity.  Kept for
    the benchmark ledger, which calls it; nothing in the library does. *)

exception Exceeded of breach
(** Raised by the streaming front end under the [Fail] policy; mapped to
    the documented budget exit code. *)

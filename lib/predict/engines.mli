(** A bundle of prediction engines driven by one message stream.

    The front ends ([jmpax check/run/stream] and the serve sessions)
    select engines with [--engine lattice,race,atomicity]; this module
    fans each observed message out to every selected engine and
    aggregates their progress, verdicts and checkpoint state.

    The lattice engine ({!Online}) keeps its first-class identity —
    [online t] exposes it so the stream/serve checkpoint and telemetry
    paths keep working unchanged; the race and atomicity engines are
    cores behind one linear front end ({!Linear}): one causal delivery
    buffer and one sync-clock pass feed whichever of the two are
    selected. *)

open Trace

type t

(** Why and where a bundle shed its lattice engine. *)
type degraded = {
  d_from : string;  (** the engine that was shed (always ["lattice"]) *)
  d_reason : string;  (** e.g. ["frontier_budget"] *)
  d_at_event : int;  (** events fed when the swap happened *)
  d_violated : bool;
      (** the shed engine had already predicted a violation — never lost
          to the swap *)
}

val create :
  kinds:Engine.kind list ->
  nthreads:int ->
  init:(Types.var * Types.value) list ->
  spec:Pastltl.Formula.t option ->
  unit ->
  t
(** @raise Invalid_argument when [kinds] is empty, or when the lattice
    engine is selected without a specification. *)

val kinds : t -> Engine.kind list

val feed : t -> Message.t -> unit
(** Fan one message out to every engine (lattice first).
    @raise Invalid_argument on duplicates — every engine agrees on
    duplicate detection, so the first engine's verdict stands for all. *)

val end_of_thread : t -> Types.tid -> unit
val finish : t -> unit
val violated : t -> bool

val online : t -> Online.t option
(** The lattice engine, when selected (and not degraded away). *)

val degraded : t -> degraded option
(** [Some _] once {!degrade} ran (or the bundle was restored from a
    degraded checkpoint): the bundle's verdict must carry the
    [degraded(...)] marker so it is never mistaken for full lattice
    coverage. *)

val degrade : t -> reason:string -> unit
(** Swap the lattice engine out for the linear-time race and atomicity
    engines at the current clean causal boundary (between feeds): the
    lattice's delivered/pending split seeds the linear front end's
    delivery buffer, the lattice state is dropped, and the bundle
    records {!degraded}.  When the bundle already ran a linear engine,
    that engine keeps its state and front end and the missing one joins
    it empty; fresh engines cover only the stream suffix.  A violation the
    lattice had already predicted is preserved in [d_violated].
    @raise Invalid_argument when no lattice engine is live. *)

(** {1 Resource accounting}

    O(1) over maintained counters; the resource-budget layer evaluates
    these after every feed. *)

val frontier_cuts : t -> int
(** Cuts in the lattice engine's current frontier level; [0] without a
    (live) lattice engine. *)

val causal_buffered : t -> int
(** Messages parked in the linear front end's one delivery buffer,
    however many engines it feeds. *)

val mem_words : t -> int
(** Approximate resident words of all live engine state (frontier arena,
    message stores, the delivery buffer counted once). *)

val events : t -> int
(** Messages fed to the bundle. *)

val ticks : t -> int
(** Checkpoint-cadence clock: the lattice level when the lattice engine
    runs, otherwise the message count. *)

val out_of_order : t -> int
(** Messages held now, waiting for an earlier message: the larger of
    the lattice's ({!Online.out_of_order}) and the delivery buffer's
    ({!Linear.buffered}) counts. *)

val missing : t -> (Types.tid * int) option

val next_index : t -> Types.tid -> int
(** The index of the thread's next message the bundle has not
    received: what a thread whose messages were lost in transit, with
    none of its later ones buffered, is missing. *)

val verdict_lines : t -> (string * string) list
(** Canonical [(engine, verdict)] lines of the non-lattice engines, in
    selection order (the lattice verdict keeps its historical
    [Pipeline.verdict_line] rendering). *)

val snapshots : t -> (string * string list) list
(** Checkpointable [(name, opaque lines)] blocks of the non-lattice
    engines ({!Online.snapshot} carries the lattice state): one
    ["linear"] block, versioned [linear 2], holding the front end once
    and a section per selected core. *)

val restore :
  ?degraded:degraded ->
  kinds:Engine.kind list ->
  nthreads:int ->
  spec:Pastltl.Formula.t option ->
  online_snapshot:Online.snapshot option ->
  blocks:(string * string list) list ->
  events:int ->
  unit ->
  t
(** Rebuild a bundle from checkpoint state.  With [degraded] the
    checkpoint was taken after a lattice→linear swap: no lattice state
    is expected even when [Lattice] is selected, the race and atomicity
    state is restored instead, and the degraded status is preserved —
    kill/resume never upgrades a degraded verdict back to a full one.
    Only a [linear 2] block loads, and only in the form its restored
    state writes back ({!snapshots} of the result equals [blocks]).
    @raise Invalid_argument on an engine block of any other version
    ([linear 1], or the [race 1] / [atomicity 1] blocks of older
    builds; the message names it), when the selected engines and the
    checkpointed state disagree (missing or unselected engine state,
    lattice state without the lattice engine or vice versa, degraded
    with lattice state), or on a malformed block, including a clock
    whose width disagrees with the delivery buffer's thread count. *)

(** {1 Offline} *)

val analyze :
  ?metered:Engine.kind list ->
  Engine.kind list ->
  Trace.Exec.t ->
  Race.report option * Atomicity.report option
(** One {!Linear.replay} over a recorded execution feeding the race
    and/or atomicity core, as the kinds list; each report equals
    {!Race.detect} / {!Atomicity.analyze} and its verdict the streaming
    engine's.  Cores of [metered] kinds count into the [predict.*]
    metrics. *)

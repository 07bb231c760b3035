(** One monitored session of the multi-tenant observer daemon.

    A session is the per-connection composition of the pieces PR 4/5
    built for the single-session stream path: an incremental
    {!Jmpax.Wire.Reader}, a {!Predict.Online} analyzer, and an optional
    per-session checkpoint file.  The daemon's event loop owns the
    socket and hands a session whatever bytes arrived; the session runs
    its state machine

    {v handshaking -> streaming -> done | failed
                           |  ^
                           v  | (reconnect, same id)
                      disconnected v}

    and never blocks: every transition is driven by [on_bytes] /
    [on_eof].

    {2 Hello handshake}

    The first line of every connection is

    {v jmpax-serve 1 <session-id> <spec-fingerprint>\n v}

    with [<session-id>] in [[A-Za-z0-9._-]{1,64}] and
    [<spec-fingerprint>] either {!Jmpax.Checkpoint.fingerprint} of the
    specification the writer was instrumented for, or [-] to skip the
    check.  The daemon answers [ok <discard>\n] or [reject <reason>\n].
    Writers replay their stream from byte 0 on {e every} connection (the
    PR 5 reconnecting-transport convention); [<discard>] is the size of
    the replayed prefix the daemon already consumed and will drop before
    new bytes reach the analyzer — diagnostic for the writer, never an
    instruction to seek.  The framed wire-v3 stream follows; at its
    logical end the daemon writes the {!Jmpax.Pipeline.verdict_line}
    back and closes.

    {2 Soundness}

    Each session's bytes flow through its own reader and analyzer,
    untouched by its siblings, so the verdict line is byte-identical to
    a standalone [jmpax check]/[jmpax stream] of that session's trace —
    the per-session soundness bar of Soueidi & Falcone's sound
    concurrent tracing, checked end-to-end by the CI load-smoke. *)

type config = {
  spec : Pastltl.Formula.t;
  spec_fp : string;  (** {!Jmpax.Checkpoint.fingerprint} of [spec] *)
  engines : Predict.Engine.kind list;
      (** the engine set every session runs ({!Predict.Engine.kind});
          checkpoints written by a session carry exactly this set, and a
          resume from disk refuses a checkpoint taken under another *)
  max_buffered : int option;
      (** per-session out-of-order bound; exceeding it disconnects
          {e only} the offending session *)
  jobs : int;
      (** unread: the lattice sweep is sequential.  Kept only because the
          benchmark builds this record literally; it goes with the next
          change to the benchmark. *)
  recovery : Jmpax.Config.recovery;
      (** [Fail] closes the session on the first malformed frame;
          [Skip]/[Quarantine] resynchronize and count the loss *)
  checkpoint_dir : string option;
      (** where [<id>.ckpt] files live; [None] = no crash safety *)
  checkpoint_every : int;  (** lattice levels between periodic writes *)
  budget : Jmpax.Budget.limits;
      (** per-session resource budgets ([--max-frontier-cuts],
          [--max-causal-buffered]); {!Jmpax.Budget.unlimited} preserves
          pre-budget behaviour byte-for-byte *)
  on_overload : Jmpax.Budget.policy;
      (** what a crossed budget does to the offending session:
          [Degrade] swaps its lattice engine for the linear-time ones
          in place (marked verdict), [Evict] checkpoints-then-drops it,
          [Fail] fails it with exit class 8.  Neighbour sessions are
          never touched. *)
  now : unit -> float;  (** injectable clock (idle timeout, tests) *)
}

type state = Handshaking | Streaming | Disconnected | Done | Failed

(** What the event loop must do after feeding a session. *)
type outcome =
  | Continue  (** still streaming (or still waiting for the hello) *)
  | Hello of { id : string; fp : string; rest : string }
      (** the hello line is complete; the loop decides fresh vs resume
          vs reject and calls the matching [start_*]/[reject] *)
  | Finished  (** the session reached [Done] or [Failed]; fd closed *)

type t

val create : config -> Unix.file_descr -> t
(** A freshly accepted connection, in [Handshaking]. *)

val id : t -> string
(** [""] until the hello line arrived. *)

val state : t -> state
val connected : t -> bool
val fd : t -> Unix.file_descr option
val last_activity : t -> float
val created_at : t -> float

val events : t -> int
(** Messages consumed so far. *)

val level : t -> int
(** The session's progress measure: the lattice level when the lattice
    engine is selected, the message count otherwise
    ({!Predict.Engines.ticks}). *)

val buffered : t -> int
(** Out-of-order buffered messages (the [max_buffered] quantity). *)

val frontier_cuts : t -> int
(** Live lattice frontier width (the [--max-frontier-cuts] quantity);
    [0] without the lattice engine — including after a degrade. *)

val causal_buffered : t -> int
(** Messages buffered in the linear engines' causal-delivery buffers
    (the [--max-causal-buffered] quantity). *)

val mem_words : t -> int
(** O(1) estimate of the session's resident analysis state in words —
    the per-session term of the daemon's [--memory-budget].  [0] once
    the session is [Done] or [Failed]: a finished session releases its
    reader and engines and keeps only the figures {!level},
    {!buffered}, {!frontier_cuts}, {!causal_buffered}, {!degraded} and
    {!lag} report, frozen at the transition. *)

val degraded : t -> Predict.Engines.degraded option
(** [Some _] once the session shed its lattice engine under
    [--on-overload degrade]; survives checkpoint/resume. *)

val lag : t -> int
(** Bytes received from the writer but not yet decoded into events —
    the session's ingest backlog (the [--health-max-lag] quantity). *)

val skipped : t -> int
(** Malformed frames skipped under [Skip]/[Quarantine]. *)

val checkpoints : t -> int
val violated : t -> bool option
(** [Some] once the verdict is known ([Done]). *)

val exit_code : t -> int
(** The session's terminal class in the documented exit vocabulary:
    [0] clean / violation verdicts, [3] decode failure, [4]
    backpressure, [6] checkpoint write failure, [8] resource budget
    (failed or evicted offender).  [0] while live. *)

val fail_reason : t -> string
(** Why the session [Failed]; [""] otherwise. *)

val on_bytes : t -> string -> outcome
(** Feed freshly read socket bytes.  In [Handshaking] the bytes
    accumulate until the hello line is complete ([Hello]); in
    [Streaming] they are pushed through the reader and analyzer, with a
    periodic checkpoint when configured. *)

val on_eof : t -> outcome
(** The peer closed its end.  Mid-stream this parks the session as
    [Disconnected] — its reader and analyzer stay live so a reconnect
    with the same id resumes in memory, replay prefix discarded. *)

val start_fresh : t -> id:string -> rest:string -> outcome
(** Complete the handshake for a new session: ack [ok 0], then feed the
    stream bytes that followed the hello line. *)

val start_resume_checkpoint :
  t -> id:string -> ck:Jmpax.Checkpoint.t -> rest:string -> outcome
(** Complete the handshake by restoring a checkpoint file (a session
    from before a daemon restart or drain): the reader and analyzer are
    rebuilt from [ck], the ack announces [ck.ck_position] bytes of
    replay to discard, and [rest] is fed.
    @raise Invalid_argument if the checkpoint does not fit the spec —
    callers validate first. *)

val adopt : t -> from:t -> rest:string -> outcome
(** In-memory resume: attach the {e new} connection [from] to this
    [Disconnected] session.  The live reader and analyzer continue; the
    replayed prefix (every byte already fed) is discarded as it
    arrives. *)

val reject : t -> string -> unit
(** Politely refuse: write [reject <reason>\n] best-effort and close. *)

val write_checkpoint : t -> (unit, string) result
(** Persist the session's resumable state to
    [checkpoint_dir/<id>.ckpt] (atomic, CRC-protected — the PR 5
    format).  [Ok ()] when there is nothing to persist yet (no header
    frame).  Used by the periodic path, eviction, and SIGTERM drain. *)

val checkpoint_path : config -> string -> string option
(** The per-session checkpoint file for a session id, when a
    [checkpoint_dir] is configured. *)

val valid_id : string -> bool
(** [[A-Za-z0-9._-]{1,64}]. *)

val mark_drain_failed : t -> string -> unit
(** Record a failed drain checkpoint (exit class 6) without closing
    anything else — the drain of sibling sessions continues. *)

val close : t -> unit
(** Close the socket if still open (idempotent); does not change
    [state]. *)

val verdict_latency : Telemetry.Metrics.histogram
(** Ingest-to-verdict-state-updated latency in microseconds, one
    observation per batch of socket bytes pushed through the reader and
    analyzer.  Fed from the config's injectable clock; exposed so the
    control socket can render p50/p90/p99. *)

(** The end-to-end JMPaX pipeline (paper, Fig. 4):

    {v
    program ──compile──> bytecode ──instrument──> instrumented bytecode
        ──execute (VM + scheduler)──> messages ⟨e, i, V⟩
        ──channel──> online observer (level-by-level predictive analysis)
        ──> report
    v}

    The relevant variables are extracted from the specification, exactly
    as JMPaX's instrumentation module parses the user specification
    (Section 4.1). *)

open Trace

type output = {
  spec : Pastltl.Formula.t;
  relevant_vars : Types.var list;
  run : Tml.Vm.run_result;  (** the single monitored execution *)
  delivered : Message.t list;  (** messages in (possibly reordered) arrival order *)
  computation : Observer.Computation.t;
      (** the delivered messages grouped per thread, for the lattice,
          counterexample and figure printers; the verdict does not read it *)
  predictive : Predict.Analyzer.report;
      (** JMPaX verdict over all runs: the delivered messages fed to one
          {!Predict.Online} in arrival order ({!Predict.Analyzer.sweep}) *)
  observed_ok : bool;  (** JPaX/Java-MaC baseline: the observed run only *)
  races : Predict.Race.report option;
  deadlocks : Predict.Lockgraph.report option;
  atomicity : Predict.Atomicity.report option;
  engines : (string * string) list;
      (** canonical [(engine, verdict)] lines of the selected streaming
          engines ([config.engines] minus the lattice), produced by
          replaying the recorded execution through the message-driven
          path — byte-identical to [jmpax run]/[stream] on the same
          execution *)
  engines_violated : bool;  (** any selected streaming engine violated *)
}

val with_telemetry : Config.t -> (unit -> 'a) -> 'a
(** Runs the thunk with telemetry configured per [config.metrics] /
    [config.trace].  When both are [None] this is exactly [f ()].
    Otherwise: metric recording (and Algorithm A's join counts) is reset
    and enabled for the duration when [metrics] is set, and the registry
    — including {!Mvc.Algorithm.join_stats} as [clock.dense.*] gauges —
    is dumped to the destination afterwards ([.json] selects the JSON
    exporter, ["-"] stdout); span tracing is written to [trace]
    likewise.  Dump and teardown also happen when the thunk raises. *)

val check : ?config:Config.t -> spec:Pastltl.Formula.t -> Tml.Ast.program -> output
(** Runs the whole pipeline once.
    @raise Invalid_argument if the program is ill-formed, or if the
    monitored run dies on a runtime error so no computation exists. *)

val check_source : ?config:Config.t -> spec:string -> string -> output
(** Same, from concrete syntax for both program and specification. *)

val predicted_violation : output -> bool
val missed_by_baseline : output -> bool
(** True when prediction found a violation the observed run did not
    exhibit — the paper's headline scenario. *)

val verdict_line : bool -> string
(** The one-line predictive verdict, shared by every front end
    ([check], [jmpax stream], [jmpax serve]) so their outputs are
    byte-comparable. *)

val degraded_verdict_line : Predict.Engines.degraded -> string
(** The verdict line of a bundle that shed its lattice engine under a
    resource budget ([--on-overload degrade]):
    [predictive verdict (JMPaX): degraded(from=lattice,reason=frontier_budget,at_event=N)],
    prefixed with [VIOLATION PREDICTED ] when a violation was
    established before the degrade point or by the surviving engines
    after it.  A degraded verdict is deliberately never byte-equal to a
    full one. *)

val pp_output : Format.formatter -> output -> unit

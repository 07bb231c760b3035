(** The paper's example programs, their observed schedules, and further
    workloads used by tests, examples and benchmarks.

    Each program is stored as concrete syntax (so every access also
    exercises the parser) together with, where the paper fixes one, the
    {!Sched.script} reproducing the {e observed} execution the paper
    analyzes. *)

(** {1 Paper examples} *)

val landing_bounded : Ast.program
(** Fig. 1's flight controller with the environment reduced to the single
    radio-off write, so that the instrumented run emits exactly the three
    relevant events of Example 1 (writes of [approved], [landing],
    [radio]) and the observer builds exactly the six-state lattice of
    Fig. 5. *)

val landing_observed : Sched.script
(** The successful execution of Example 1: approval, landing, and only
    then radio-off. *)

val landing_full : rounds:int -> Ast.program
(** Fig. 1 faithfully: the environment thread re-checks the radio up to
    [rounds] times, each check possibly flipping it off ([choose]); used
    for the detection-probability experiment (E6).
    @raise Invalid_argument if [rounds < 1]. *)

val xyz : Ast.program
(** Example 2: initially [x = -1, y = 0, z = 0]; thread 1 runs
    [x = x + 1; y = x + 1], thread 2 runs [z = x + 1; x = x + 1]. *)

val xyz_observed : Sched.script
(** The paper's observed execution, passing through states
    [(-1,0,0), (0,0,0), (0,0,1), (1,0,1), (1,1,1)] and emitting
    [e1 ⟨x=0,T1,(1,0)⟩, e2 ⟨z=1,T2,(1,1)⟩, e4 ⟨x=1,T2,(1,2)⟩,
    e3 ⟨y=1,T1,(2,0)⟩]. *)

(** {1 Further workloads} *)

val racy_counter : increments:int -> Ast.program
(** Two threads each performing [increments] unprotected
    read-modify-write increments of a shared counter — the classic lost
    update, and a data race on every access pair. *)

val locked_counter : increments:int -> Ast.program
(** The same counter protected by a lock; no race, no lost update. *)

val producer_consumer : items:int -> Ast.program
(** One producer, one consumer over a one-slot buffer synchronized with
    [wait]/[notify]. *)

val bank_transfer : Ast.program
(** Two transfers locking two accounts in opposite orders — may
    deadlock; the lock-order graph has a cycle. *)

val bank_transfer_ordered : Ast.program
(** Same transfers, locks always taken in the same order — deadlock
    free. *)

val peterson : Ast.program
(** Peterson's mutual-exclusion protocol guarding a critical increment;
    correct under sequential consistency. *)

val dekker_sketch : Ast.program
(** The naive flag-based mutual exclusion (first attempt at Dekker's
    algorithm) — both threads can enter the critical section; its racy
    increment is predictably lost. *)

val fork_join : workers:int -> Ast.program
(** A master thread that spawns [workers] dormant workers, each squaring
    its input into its own cell, then joins them all and totals the
    results — the classic fork/join pattern over {!Desugar}'s dynamic
    threads. Deterministic: the total is independent of scheduling.
    @raise Invalid_argument if [workers < 1]. *)

val spawn_unsynchronized : Ast.program
(** A master that spawns a worker and then races with it on a shared
    cell — dynamic creation does not order the {e subsequent} accesses,
    so the race detector must still fire. *)

val pipeline : stages:int -> Ast.program
(** [stages] threads forwarding a value through a chain of shared cells;
    long causal chains with no concurrency between adjacent writes. *)

val independent : threads:int -> writes:int -> Ast.program
(** Fully independent threads writing disjoint variables — the lattice
    is a full grid, worst case for level width.
    @raise Invalid_argument if [threads < 1] or [writes < 1]. *)

val all_named : unit -> (string * Ast.program) list
(** Every fixed-size program above with a stable name, for integration
    tests and the CLI's [--example] option. *)

val source_of_name : string -> string option
(** Concrete syntax for a named program, if known. *)

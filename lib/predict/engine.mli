(** The pluggable prediction-engine interface.

    JMPaX's observer originally ran exactly one analysis — the level-by-
    level lattice traversal ({!Online}).  This module generalizes the
    observer side to a registry of {e engines}: each engine consumes the
    same Algorithm-A message stream one message at a time, reports a
    verdict, and can snapshot/restore its state for checkpointed
    resumption.  [jmpax check/run/stream] and the serve sessions select
    engines with [--engine lattice,race,atomicity]. *)

open Trace

(** {1 Engine selection} *)

type kind = Lattice | Race | Atomicity

val kind_to_string : kind -> string
val kind_of_string : string -> kind option

val default_kinds : kind list
(** [[Lattice]] — the historical behaviour. *)

val kinds_to_string : kind list -> string

val kinds_of_string : string -> (kind list, string) result
(** Parse a comma-separated engine list ([--engine] syntax).  Order is
    preserved, duplicates are dropped, unknown names are an [Error]. *)

(** {1 The engine interface} *)

type instance = {
  name : string;
  feed : Message.t -> unit;
      (** One observed message, any arrival order permitted by the
          transport.  Raises [Invalid_argument] on duplicates and
          {!Online.Backpressure} past the out-of-order bound, matching
          {!Online.feed}. *)
  end_of_thread : Types.tid -> unit;
  finish : unit -> unit;
      (** End of stream; raises [Invalid_argument] if messages are
          provably missing. *)
  violated : unit -> bool;
  verdict : unit -> string;
      (** Canonical one-line verdict, [predict.<name>: ...].  Stable
          across front ends (check / stream / serve) and byte-comparable
          with the offline passes. *)
  events : unit -> int;  (** messages fed so far *)
  buffered : unit -> int;
  out_of_order : unit -> int;
  missing : unit -> (Types.tid * int) option;
  snapshot : unit -> string list;
      (** Version-tagged opaque lines, embedded in the checkpoint
          format.  Lines never start with a checkpoint keyword and never
          contain newlines. *)
}

type ctx = {
  nthreads : int;
  init : (Types.var * Types.value) list;
  spec : Pastltl.Formula.t option;  (** lattice engine only *)
  max_buffered : int option;
  overflow_limit : int option;
      (** budget cap on the causal delivery buffer; past it {!instance.feed}
          raises {!Causal.Causal_buffer_overflow} (message-driven engines
          only) *)
  start : Causal.snapshot option;
      (** start the engine mid-stream from this causal cut instead of the
          empty beginning — the degrade path hands the lattice engine's
          delivered/pending split over so the linear-time engines pick the
          stream up at a clean causal boundary.  The engine's summaries
          start empty: it soundly covers only the suffix. *)
}

type factory = {
  create : ctx -> instance;
  restore : ctx -> string list -> instance;
      (** Rebuild from {!instance.snapshot} output.
          @raise Invalid_argument on a malformed or truncated block. *)
}

(** {1 Registry} *)

val register : string -> factory -> unit
(** @raise Invalid_argument on duplicate registration. *)

val find : string -> factory option
val names : unit -> string list

(** {1 Replaying a recorded execution} *)

val messages_of_exec : Exec.t -> Message.t list
(** Synthesize the message stream Algorithm A with
    {!Mvc.Relevance.all_events} emits for a recorded execution — the
    bridge that lets [jmpax check] feed the streaming engines and stay
    byte-comparable with [jmpax run]/[stream]. *)

(** {1 Snapshot line codec} *)

module Snapshot : sig
  type reader

  val reader : string list -> reader
  val eof : reader -> bool

  val line : what:string -> reader -> string
  (** @raise Invalid_argument when exhausted. *)

  val words : string -> string list
  val int : what:string -> string -> int
  val clock : what:string -> string -> Vclock.t

  val keyed : what:string -> key:string -> reader -> string list
  (** Next line's fields after checking its leading keyword. *)

  val push : string list ref -> string -> unit
  (** Lines accumulate reversed; finish with [List.rev]. *)

  val add_syncclock : string list ref -> Syncclock.snapshot -> unit
  val read_syncclock : what:string -> reader -> Syncclock.t
  val add_causal : string list ref -> Causal.snapshot -> unit

  val read_causal :
    what:string -> ?max_buffered:int -> ?overflow_limit:int -> reader -> Causal.t
end

(** Prediction-engine selection and the snapshot line codec.

    JMPaX's observer originally ran exactly one analysis — the level-by-
    level lattice traversal ({!Online}).  [jmpax check/run/stream] and
    the serve sessions select engines with [--engine
    lattice,race,atomicity]: the lattice, and the race and atomicity
    cores behind one linear front end ({!Linear}); {!Engines} drives the
    selection. *)

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

val names : unit -> string list
(** The engines the linear front end ({!Linear}) serves, sorted. *)

(** {1 Replaying a recorded execution} *)

val messages_of_exec : Exec.t -> Message.t list
(** Synthesize the message stream Algorithm A with
    {!Mvc.Relevance.all_events} emits for a recorded execution: what
    [jmpax run --engine race] records, and what the streaming engines
    consume. *)

(** {1 Snapshot line codec}

    What the checkpoint body and the engine blocks inside it read
    through: a line splits at single spaces only, and a number, a clock,
    a bit string or a comma list has one spelling each.  Every reader
    raises [Invalid_argument] naming [what] on anything else. *)

module Snapshot : sig
  type reader

  val reader : string list -> reader
  val eof : reader -> bool

  val next_key : reader -> string option
  (** The next line's leading keyword (up to its first space), without
      consuming it. *)

  val line : what:string -> reader -> string
  (** @raise Invalid_argument when exhausted. *)

  val fields : what:string -> key:string -> ?n:int -> reader -> string array
  (** The next line's fields after its keyword [key] — exactly [n] of
      them when [n] is given.  A doubled, leading or trailing space (an
      empty field) is refused. *)

  val nat : what:string -> string -> int
  (** Decimal digits only, as [string_of_int] writes them: no sign, no
      base prefix, no underscore, no leading zero. *)

  val int : what:string -> string -> int
  (** An optional ['-'] followed by a {!nat}; not ["-0"]. *)

  val clock : what:string -> string -> Vclock.t
  (** [(n,...,n)], each component a {!nat}. *)

  val push : string list ref -> string -> unit
  (** Lines accumulate reversed; finish with [List.rev]. *)

  val push_counted : string list ref -> string -> 'a list -> ('a -> string list) -> unit
  (** A ["key n"] line, then each item's lines; see {!counted}. *)

  val counted : what:string -> key:string -> reader -> (unit -> 'a) -> 'a list
  (** A ["key n"] line, then [n] items read in order. *)

  val many : key:string -> reader -> (unit -> 'a) -> 'a list
  (** Items read in order while the next line's keyword is [key]. *)

  val bits : what:string -> string -> string
  (** A non-empty string of ['0'] and ['1'], returned as is. *)

  val bools : what:string -> width:int -> string -> bool array
  (** A bit string of exactly [width] bits. *)

  val nats : what:string -> width:int -> string -> int array
  (** A comma list of exactly [width] naturals. *)
end

(** Events of a multithreaded execution (paper, Section 2.1).

    An execution is a sequence of events, each generated by one thread and
    of type {e internal}, {e read} or {e write} of a shared variable. A
    write carries the new value so that an observer can reconstruct global
    states. [e.pos] is the index [k] of the event within its thread
    ([e] is the paper's {i e{^k}{_i}}); [e.eid] is its position in the
    observed execution [M]. *)

type kind =
  | Internal
  | Read of Types.var * Types.value  (** variable read and the value seen *)
  | Write of Types.var * Types.value  (** variable written and the new value *)

type t = { eid : int; tid : Types.tid; pos : int; kind : kind }

val internal : eid:int -> tid:Types.tid -> pos:int -> t
val read : eid:int -> tid:Types.tid -> pos:int -> var:Types.var -> value:Types.value -> t
val write : eid:int -> tid:Types.tid -> pos:int -> var:Types.var -> value:Types.value -> t

val variable : t -> Types.var option
(** The variable accessed, if any. *)

val is_read : t -> bool
val is_write : t -> bool

val accesses : t -> Types.var -> bool
(** [accesses e x] iff [e] reads or writes [x]. *)

val writes : t -> Types.var -> bool

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

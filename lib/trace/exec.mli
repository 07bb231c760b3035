(** A recorded multithreaded execution [M = e1 e2 ... er] (paper,
    Section 2.1): the flat, totally ordered sequence of events as they
    happened, together with the number of threads and the initial values
    of the shared variables.

    Executions are produced by the TML virtual machine and consumed by
    the brute-force causality oracle ({!Causality}) and by tests. *)

type t

(** {1 Construction} *)

type builder

val builder : nthreads:int -> init:(Types.var * Types.value) list -> builder
(** A fresh builder. Event ids and per-thread positions are assigned
    automatically in append order.
    @raise Invalid_argument if [nthreads <= 0]. *)

val add_internal : builder -> Types.tid -> Event.t
val add_read : builder -> Types.tid -> Types.var -> Types.value -> Event.t
val add_write : builder -> Types.tid -> Types.var -> Types.value -> Event.t

val freeze : builder -> t

(** {1 Observation} *)

val nthreads : t -> int
val length : t -> int
val events : t -> Event.t array
(** Events in observed order; [e.eid] equals the array index. *)

val event : t -> int -> Event.t
(** [event m eid].
    @raise Invalid_argument if out of bounds. *)

val init : t -> (Types.var * Types.value) list

val variables : t -> Types.var list
(** All shared variables accessed or declared, sorted. *)

val pp : Format.formatter -> t -> unit

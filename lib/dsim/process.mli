(** Processes of the distributed-systems interpretation (paper,
    Section 3.2, Fig. 3).

    Each thread [t_i] is a process, and each shared variable [x]
    contributes an {e access process} [x{^a}] and a {e write process}
    [x{^w}]. Causality then flows through vector clocks piggybacked on
    messages, as in classic distributed-systems algorithms, except for
    the {e hidden} message of a read (see {!Network}). *)

open Trace

type pid =
  | Thread of Types.tid
  | Access of Types.var  (** the [x{^a}] process *)
  | Writer of Types.var  (** the [x{^w}] process *)

type t

val create : pid -> dim:int -> t
val pid : t -> pid
val clock : t -> Vclock.t

val merge : t -> Vclock.t -> unit
(** Receive a (visible) message carrying a clock: [vc <- max vc msg]. *)

val bump : t -> Types.tid -> unit
(** Step 1 of Algorithm A: a relevant event increments the thread's own
    component. Only meaningful for [Thread] pids.
    @raise Invalid_argument otherwise. *)

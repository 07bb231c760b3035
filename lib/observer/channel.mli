(** Simulated delivery channels between the instrumented program and the
    observer.

    JMPaX ships messages over a socket, and the paper stresses that
    analyzing the {e causal order} — rather than the arrival order —
    makes the observer robust to "potential reordering of delivered
    messages (e.g., due to using multiple channels to reduce the
    monitoring overhead)" (Section 2.2). These channels produce such
    reorderings deterministically so tests and benches can exercise that
    robustness. *)

open Trace

val identity : Message.t list -> Message.t list
(** In-order delivery. *)

val shuffle : seed:int -> Message.t list -> Message.t list
(** A uniform random permutation — the adversarial network. *)

val bounded_reorder : seed:int -> window:int -> Message.t list -> Message.t list
(** Realistic jitter: at each delivery point one of the oldest [window]
    undelivered messages is delivered, so no message overtakes more than
    [window - 1] others.
    @raise Invalid_argument if [window < 1]. *)

val is_plausible_delivery : original:Message.t list -> Message.t list -> bool
(** True when the second list is a permutation of the first that
    preserves each thread's message order — what {!identity} produces.
    {!shuffle} and {!bounded_reorder} may reorder within a thread too;
    the observer handles both. *)

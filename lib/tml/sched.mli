(** Schedulers: the source of all nondeterminism in a TML run.

    A scheduler makes two kinds of decisions: which runnable thread takes
    the next observable step ({!pick}), and which branch a [choose(...)]
    expression takes ({!choose}). Recording a run's decisions yields a
    {!script} that replays it exactly — the mechanism behind differential
    tests (VM vs reference interpreter) and exhaustive exploration. *)

open Trace

type decision = Pick of Types.tid | Choice of int
type script = decision list

type t

val name : t -> string

val pick : t -> runnable:Types.tid array -> count:int -> Types.tid
(** Selects a thread among [runnable.(0 .. count - 1)], which are
    ascending (further elements are ignored); every strategy picks in
    O(1) or by a scan of that prefix.  The array belongs to the caller
    (the machine keeps and updates it between steps): a strategy reads
    it during the call only.
    @raise Invalid_argument if [count <= 0].
    @raise Replay_mismatch for a script scheduler whose next decision is
    not a pick of a runnable thread. *)

val choose : t -> int -> int
(** [choose t k] selects a branch in [\[0, k)].
    @raise Invalid_argument if [k <= 0]. *)

exception Replay_mismatch of string

(** {1 Strategies} *)

val round_robin : unit -> t
(** Cycles through thread ids; [choose] always takes branch 0. *)

val random : seed:int -> t
(** Uniform among runnable threads and branches, deterministic in
    [seed]: a pick is element [Random.State.int state count] of the
    ascending runnable set. *)

val random_biased : seed:int -> stickiness:int -> t
(** Like {!random} but keeps running the same thread with odds
    [stickiness : 1], producing long thread bursts — schedules under
    which interleaving bugs hide, as with a real JVM scheduler.
    @raise Invalid_argument if [stickiness < 0]. *)

val of_script : script -> t
(** Replays decisions in order.
    @raise Replay_mismatch (at use time) when the script disagrees with
    the run or is exhausted. *)

val make_raw :
  name:string ->
  pick_fn:(Types.tid array -> int -> Types.tid) ->
  choose_fn:(int -> int) ->
  t
(** Escape hatch for custom strategies (used by {!Explore}'s probing
    scheduler). [pick_fn runnable count] receives the runnable set as in
    {!pick} ([count > 0]) and must return one of its elements;
    [choose_fn k] must return a value in
    [\[0, k)] — both are enforced with assertions at use sites. *)

val recording : t -> t * (unit -> script)
(** [recording inner] behaves as [inner] and additionally records every
    decision; the callback returns the script so far (in order). *)

val pp_script : Format.formatter -> script -> unit

(** The shared frontier engine behind {!Lattice.build} and
    [Predict.Online]: one lattice level at a time, as in the paper's
    level-by-level sweep (Section 4).

    Every cut of the current level lives in one flat [int array] arena
    and is identified by a dense integer id, deduplicated through a
    custom open-addressing hash table — no [int list] keys, no per-cut
    [Array.to_list]/[Array.copy].  A sweep owns exactly two level
    buffers, the paper's two consecutive levels: a level step expands
    the current level's cuts, in canonical (lexicographic) order, into
    the spare buffer and swaps the two, reusing their storage, so a
    level costs only its transitions. *)

(** An interning table of packed cuts: a growable flat arena of
    [width]-sized [int array] slices plus an open-addressing index.
    Interning assigns dense ids [0, 1, 2, ...] in first-seen order. *)
module Cutset : sig
  type t

  val create : ?capacity:int -> width:int -> unit -> t
  val width : t -> int

  val count : t -> int
  (** Number of distinct cuts interned so far (= next fresh id). *)

  val intern : t -> int array -> int
  (** Id of the cut, inserting it if new.
      @raise Invalid_argument on a wrong-width array. *)

  val find : t -> int array -> int option
  (** Id of the cut if present, without inserting. *)

  val get : t -> int -> int -> int
  (** [get t id i] is component [i] of cut [id]. Unchecked. *)

  val blit : t -> int -> int array -> unit
  (** Copy cut [id] into a caller-owned buffer of length [width]. *)

  val to_array : t -> int -> int array
  (** Fresh copy of cut [id]. *)

  val intern_succ : t -> src:t -> src_id:int -> tid:int -> int
  (** Intern the successor of [src]'s cut [src_id] with component [tid]
      incremented — allocation-free (goes through an internal scratch
      buffer; not reentrant on one [t]). *)

  val compare_ids : t -> int -> int -> int
  (** Lexicographic order on the underlying cuts. *)

  val clear : t -> unit
  (** Forget every cut, keeping the storage.  Ids restart at 0. *)

  val mem_words : t -> int
  (** Approximate resident size in words (arena + index). *)

  val flush_stats : t -> unit
  (** Publish this table's batched interning telemetry (hit/miss/probe
      counts, arena peak) to {!Telemetry.Metrics} and zero the batch.
      Cheap no-op when nothing was recorded; {!Make.advance} calls it
      once per level, long-lived tables (e.g. a lattice's node index)
      should call it when done. *)
end

module type PAYLOAD = sig
  type t

  val dummy : t
  (** Fills the payload slots no cut of a level uses; never passed to
      a callback. *)
end

(** The level-by-level engine over one payload type. *)
module Make (P : PAYLOAD) : sig
  type frontier
  (** A two-level sweep: the current lattice level (an interned cut
      set, its canonical lexicographic iteration order, one payload per
      cut) and a cleared spare buffer the next level is built into.
      Mutable: {!advance} replaces the level in place. *)

  val singleton : width:int -> int array -> P.t -> frontier

  val of_list : width:int -> (int array * P.t) list -> frontier
  (** Rebuild one level from explicit cut/payload pairs — the checkpoint
      restore path of [Predict.Online].  Iteration order is
      canonicalized, so rebuilding from any permutation of a level's
      {!fold} output reproduces that level exactly.
      @raise Invalid_argument on an empty list, a wrong-width cut or a
      cut listed twice. *)

  val size : frontier -> int
  val width : frontier -> int

  val iter : (int array -> P.t -> unit) -> frontier -> unit
  (** Canonical order.  The cut argument is a buffer the frontier keeps
      and reuses — copy it if retained, and do not nest [iter]/[fold]
      calls on one frontier. *)

  val fold : ('a -> int array -> P.t -> 'a) -> 'a -> frontier -> 'a
  (** Canonical order; same reused-buffer caveat as {!iter}. *)

  val find : frontier -> int array -> P.t option

  val min_components_into : frontier -> int array -> unit
  (** Per-thread minimum over all cuts of the level, into a caller-kept
      array of length [width] — the garbage-collection floor of
      [Predict.Online].
      @raise Invalid_argument on a wrong-width array. *)

  val mem_words : frontier -> int
  (** Approximate resident size in words of both level buffers and the
      kept scratch cuts, not counting what the payloads point to. *)

  val advance :
    enabled:(int array -> int array -> int) ->
    step:(P.t -> int array -> int -> P.t) ->
    join:(P.t -> P.t -> int array -> int -> P.t) ->
    frontier ->
    bool
  (** One level step, in place.  [enabled cut tids] writes the threads
      whose next event is enabled at [cut] into [tids] (a buffer of
      length [width]), ascending, and returns their count.  [step p cut
      tid] is the payload of [cut]'s successor through [tid]'s next
      event; when an earlier expansion already reached that successor
      with payload [q], [join q p cut tid] replaces [q] instead, which
      is where two paths meeting at one cut combine.  Cuts are expanded
      in canonical order, threads ascending, and the [cut] argument is a
      reused buffer (do not retain).

      When the next level is nonempty it becomes the frontier's level
      (iteration order re-sorted lexicographically), the old level's
      buffer is cleared and kept as the spare (or, when it is sized for
      more than four times the new level's cuts and more than 16,
      replaced by one twice the new level's size), and the result is
      [true].  [false] means the sweep is complete: the next level is
      empty and the frontier still holds the last one. *)
end

(** The shared frontier engine behind {!Lattice.build} and
    [Predict.Online]: one lattice level at a time, as in the paper's
    level-by-level sweep (Section 4).

    Every cut of the current level lives in one flat [int array] arena
    and is identified by a dense integer id, deduplicated through a
    custom open-addressing hash table — no [int list] keys, no per-cut
    [Array.to_list]/[Array.copy].  A level step expands the cuts in
    canonical (lexicographic) order into the next level's table, so the
    sweep holds at most two consecutive levels at any moment. *)

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

  val mem_words : t -> int
  (** Approximate resident size in words (arena + index). *)

  val flush_stats : t -> unit
  (** Publish this table's batched interning telemetry (hit/miss/probe
      counts, arena peak) to {!Telemetry.Metrics} and zero the batch.
      Cheap no-op when nothing was recorded; {!Make.expand} calls it
      once per level, long-lived tables (e.g. a lattice's node index)
      should call it when done. *)
end

module type PAYLOAD = sig
  type t

  val merge : t -> t -> t
  (** Combine two expansions that reached the same successor cut; called
      in the canonical order of their source cuts. *)
end

(** The level-by-level engine over one payload type. *)
module Make (P : PAYLOAD) : sig
  type frontier
  (** One lattice level: an interned cut set, the canonical
      (lexicographic) iteration order, and one payload per cut. *)

  val singleton : width:int -> int array -> P.t -> frontier

  val of_list : width:int -> (int array * P.t) list -> frontier
  (** Rebuild one level from explicit cut/payload pairs — the checkpoint
      restore path of [Predict.Online].  Pairs hitting the same cut are
      combined with [P.merge] in list order; iteration order is
      canonicalized, so rebuilding from any permutation of a level's
      {!fold} output reproduces that level exactly.
      @raise Invalid_argument on an empty list or a wrong-width cut. *)

  val size : frontier -> int
  val width : frontier -> int

  val iter : (int array -> P.t -> unit) -> frontier -> unit
  (** Canonical order.  The cut argument is a reused buffer — copy it
      if retained. *)

  val fold : ('a -> int array -> P.t -> 'a) -> 'a -> frontier -> 'a
  (** Canonical order; same reused-buffer caveat as {!iter}. *)

  val find : frontier -> int array -> P.t option

  val min_components : frontier -> int array
  (** Per-thread minimum over all cuts of the level — the garbage
      collection floor of [Predict.Online]. *)

  val mem_words : frontier -> int

  val expand :
    moves:(int array -> (int * 'm) list) ->
    transition:(P.t -> tid:int -> 'm -> P.t) ->
    frontier ->
    frontier
  (** One level step: [moves cut] lists the enabled events [(tid, move)]
      of a cut (the cut argument is a reused buffer — do not retain),
      [transition] computes the successor payload, and expansions
      meeting at one successor cut are combined with [P.merge], in the
      canonical order of their source cuts.  The result's iteration
      order is re-sorted lexicographically.  An empty result means the
      sweep is complete. *)
end

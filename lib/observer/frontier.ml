(* The shared frontier engine: packed interned cuts and one sequential
   level loop.  Used by Lattice.build and Predict.Online. *)

module M = Telemetry.Metrics

(* Handles are created once at module initialization; hot-path sites
   branch on [M.deep_enabled ()] before touching them (§4e of
   DESIGN.md: one branch, no closure, when telemetry is off).  Every
   site in this module is per-level or per-intern — the deep
   diagnostics tier — so a daemon running with only the operational
   registry live ([--live-metrics]) pays just the branch. *)
let m_intern_hit = M.counter "frontier.intern.hit"
let m_intern_miss = M.counter "frontier.intern.miss"
let m_probes = M.counter "frontier.intern.probes"
let m_max_probe = M.gauge "frontier.intern.max_probe"
let m_levels = M.counter "frontier.levels_expanded"
let m_level_cuts = M.histogram "frontier.level.cuts"
let m_arena_words = M.gauge "frontier.cutset.peak_mem_words"

(* [Array.blit] of a few ints, without its C call: into an array on
   the major heap the runtime's blit goes through the write barrier
   element by element, which costs more than the loop's plain stores. *)
let copy_ints (src : int array) soff (dst : int array) doff n =
  for i = 0 to n - 1 do
    dst.(doff + i) <- src.(soff + i)
  done

module Cutset = struct
  type t = {
    width : int;
    mutable arena : int array;  (* cut [id] lives at [id*width .. id*width+width-1] *)
    mutable count : int;
    mutable slots : int array;  (* open addressing: cut id or -1 *)
    mutable mask : int;
    scratch : int array;  (* reused candidate buffer for intern_succ *)
    (* Interning statistics, batched in plain fields: the per-lookup
       cost with metrics on is a few field writes, and [flush_stats]
       moves the batch into the atomic registry once per level rather
       than once per probe. *)
    mutable last_probes : int;  (* probe length of the last counted lookup *)
    mutable stat_hits : int;
    mutable stat_misses : int;
    mutable stat_probes : int;
    mutable stat_max_probe : int;
  }

  let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

  let create ?(capacity = 16) ~width () =
    if width <= 0 then invalid_arg "Frontier.Cutset.create: width must be positive";
    let capacity = max 1 capacity in
    let cap = pow2_at_least (2 * capacity) 8 in
    { width;
      arena = Array.make (capacity * width) 0;
      count = 0;
      slots = Array.make cap (-1);
      mask = cap - 1;
      scratch = Array.make width 0;
      last_probes = 0;
      stat_hits = 0;
      stat_misses = 0;
      stat_probes = 0;
      stat_max_probe = 0 }

  let width t = t.width
  let count t = t.count

  (* FNV-1a over one cut, masked nonnegative. *)
  let hash_slice (a : int array) off width =
    let h = ref 0x811c9dc5 in
    for i = off to off + width - 1 do
      h := (!h lxor a.(i)) * 0x01000193
    done;
    !h land max_int

  let slice_equal t id (a : int array) off =
    let base = id * t.width in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < t.width do
      if t.arena.(base + !i) <> a.(off + !i) then ok := false;
      incr i
    done;
    !ok

  (* Slot holding [a[off..]]'s id, or the first empty slot. *)
  let find_slot t (a : int array) off =
    let i = ref (hash_slice a off t.width land t.mask) in
    while
      let id = t.slots.(!i) in
      id >= 0 && not (slice_equal t id a off)
    do
      i := (!i + 1) land t.mask
    done;
    !i

  (* [find_slot] with probe counting into [last_probes]; only reached
     when metrics are on, so the plain lookup stays write-free. *)
  let find_slot_probed t (a : int array) off =
    let probes = ref 1 in
    let i = ref (hash_slice a off t.width land t.mask) in
    while
      let id = t.slots.(!i) in
      id >= 0 && not (slice_equal t id a off)
    do
      Stdlib.incr probes;
      i := (!i + 1) land t.mask
    done;
    t.last_probes <- !probes;
    !i

  let grow_slots t =
    let cap = 2 * Array.length t.slots in
    t.slots <- Array.make cap (-1);
    t.mask <- cap - 1;
    for id = 0 to t.count - 1 do
      let i = ref (hash_slice t.arena (id * t.width) t.width land t.mask) in
      while t.slots.(!i) >= 0 do
        i := (!i + 1) land t.mask
      done;
      t.slots.(!i) <- id
    done

  let ensure_arena t =
    let need = (t.count + 1) * t.width in
    if need > Array.length t.arena then begin
      let arena = Array.make (max need (2 * Array.length t.arena)) 0 in
      Array.blit t.arena 0 arena 0 (t.count * t.width);
      t.arena <- arena
    end

  let mem_words t = Array.length t.arena + Array.length t.slots + t.width + 8

  (* Empty the table, keeping its storage. *)
  let clear t =
    let slots = t.slots in
    for i = 0 to Array.length slots - 1 do
      slots.(i) <- -1
    done;
    t.count <- 0

  let insert_at t (a : int array) off s =
    let id = t.count in
    ensure_arena t;
    copy_ints a off t.arena (id * t.width) t.width;
    t.count <- id + 1;
    t.slots.(s) <- id;
    id

  let intern_off t (a : int array) off =
    if 2 * (t.count + 1) > Array.length t.slots then grow_slots t;
    if M.deep_enabled () then begin
      let s = find_slot_probed t a off in
      let p = t.last_probes in
      t.stat_probes <- t.stat_probes + p;
      if p > t.stat_max_probe then t.stat_max_probe <- p;
      let id = t.slots.(s) in
      if id >= 0 then begin
        t.stat_hits <- t.stat_hits + 1;
        id
      end
      else begin
        t.stat_misses <- t.stat_misses + 1;
        insert_at t a off s
      end
    end
    else begin
      let s = find_slot t a off in
      let id = t.slots.(s) in
      if id >= 0 then id else insert_at t a off s
    end

  (* Publish batched interning stats to the registry and zero them.
     Called once per level per cutset (and when a cutset retires), so
     the atomic traffic is O(levels), not O(probes). *)
  let flush_stats t =
    if t.stat_hits > 0 || t.stat_misses > 0 then begin
      M.add m_intern_hit t.stat_hits;
      M.add m_intern_miss t.stat_misses;
      M.add m_probes t.stat_probes;
      M.set_max m_max_probe t.stat_max_probe;
      M.set_max m_arena_words (mem_words t);
      t.stat_hits <- 0;
      t.stat_misses <- 0;
      t.stat_probes <- 0;
      t.stat_max_probe <- 0
    end

  let intern t a =
    if Array.length a <> t.width then
      invalid_arg "Frontier.Cutset.intern: wrong cut width";
    intern_off t a 0

  let find t a =
    if Array.length a <> t.width then
      invalid_arg "Frontier.Cutset.find: wrong cut width";
    let id = t.slots.(find_slot t a 0) in
    if id >= 0 then Some id else None

  let get t id i = t.arena.((id * t.width) + i)
  let blit t id dst = copy_ints t.arena (id * t.width) dst 0 t.width
  let to_array t id = Array.sub t.arena (id * t.width) t.width

  (* Successor cut of [src_id] in [src] with component [tid] bumped,
     interned into [t] without allocating: the candidate goes through
     [t.scratch]. *)
  let intern_succ t ~src ~src_id ~tid =
    copy_ints src.arena (src_id * src.width) t.scratch 0 t.width;
    t.scratch.(tid) <- t.scratch.(tid) + 1;
    intern_off t t.scratch 0

  let compare_ids t a b =
    let ba = a * t.width and bb = b * t.width in
    let i = ref 0 in
    while !i < t.width && t.arena.(ba + !i) = t.arena.(bb + !i) do
      incr i
    done;
    if !i = t.width then 0 else Int.compare t.arena.(ba + !i) t.arena.(bb + !i)
end

module type PAYLOAD = sig
  type t

  val dummy : t
  (** Fills the payload slots no cut uses. *)
end

(* [order.(0 .. n-1)] sorted by cut, in place, by heapsort: O(n log n)
   at worst (a hog's level reaches hundreds of cuts) and no allocation.
   Cuts are distinct, so every correct sort gives the same order. *)
let rec sift_down cuts (order : int array) root n =
  let child = (2 * root) + 1 in
  if child < n then begin
    let child =
      if child + 1 < n && Cutset.compare_ids cuts order.(child) order.(child + 1) < 0 then
        child + 1
      else child
    in
    if Cutset.compare_ids cuts order.(root) order.(child) < 0 then begin
      let x = order.(root) in
      order.(root) <- order.(child);
      order.(child) <- x;
      sift_down cuts order child n
    end
  end

let sort_ids cuts (order : int array) n =
  for root = (n / 2) - 1 downto 0 do
    sift_down cuts order root n
  done;
  for last = n - 1 downto 1 do
    let x = order.(0) in
    order.(0) <- order.(last);
    order.(last) <- x;
    sift_down cuts order 0 last
  done

module Make (P : PAYLOAD) = struct
  (* One level buffer.  [order] and [payloads] are read on
     [0 .. count-1]; every payload slot past the count holds [P.dummy],
     so a buffer keeps no retired level's payloads alive. *)
  type level = {
    cuts : Cutset.t;
    mutable order : int array;  (* canonical (lexicographic) iteration order -> cut id *)
    mutable payloads : P.t array;  (* indexed by cut id *)
  }

  (* The sweep's two buffers: [cur] holds the level, [spare] (cleared)
     receives the next one, and [advance] swaps them.  The scratch cuts
     are kept too, so a level step allocates only what its transitions
     do. *)
  type frontier = {
    mutable cur : level;
    mutable spare : level;
    cutbuf : int array;  (* the cut handed to [enabled], [step], [join] *)
    tids : int array;  (* [enabled]'s output *)
    iterbuf : int array;  (* the cut handed to [iter]'s and [fold]'s callback *)
  }

  let level_create ~width capacity =
    { cuts = Cutset.create ~capacity ~width ();
      order = Array.make capacity 0;
      payloads = Array.make capacity P.dummy }

  let of_level ~width cur =
    { cur;
      spare = level_create ~width 4;
      cutbuf = Array.make width 0;
      tids = Array.make width 0;
      iterbuf = Array.make width 0 }

  (* [lvl]'s payload slot [id], grown (filled with [P.dummy]) if need be. *)
  let set_payload lvl id p =
    let len = Array.length lvl.payloads in
    if id >= len then begin
      let payloads = Array.make (max (id + 1) (2 * len)) P.dummy in
      Array.blit lvl.payloads 0 payloads 0 len;
      lvl.payloads <- payloads
    end;
    lvl.payloads.(id) <- p

  (* Canonical order of [lvl]'s cuts into its kept order array. *)
  let sort_level lvl =
    let n = Cutset.count lvl.cuts in
    if n > Array.length lvl.order then
      lvl.order <- Array.make (max n (2 * Array.length lvl.order)) 0;
    for i = 0 to n - 1 do
      lvl.order.(i) <- i
    done;
    sort_ids lvl.cuts lvl.order n

  let singleton ~width cut payload =
    let lvl = level_create ~width 4 in
    set_payload lvl (Cutset.intern lvl.cuts cut) payload;
    sort_level lvl;
    of_level ~width lvl

  (* Rebuild a level from an explicit cut/payload list (checkpoint
     restore).  The iteration order is re-sorted, so a frontier rebuilt
     from any permutation of [fold]'s output is identical to the
     original. *)
  let of_list ~width entries =
    if entries = [] then invalid_arg "Frontier.of_list: empty level";
    let lvl = level_create ~width (List.length entries) in
    List.iter
      (fun (cut, payload) ->
        let fresh = Cutset.count lvl.cuts in
        let id = Cutset.intern lvl.cuts cut in
        if id <> fresh then invalid_arg "Frontier.of_list: a cut listed twice";
        set_payload lvl id payload)
      entries;
    sort_level lvl;
    of_level ~width lvl

  let size f = Cutset.count f.cur.cuts
  let width f = Cutset.width f.cur.cuts

  let iter g f =
    let lvl = f.cur in
    for i = 0 to size f - 1 do
      let id = lvl.order.(i) in
      Cutset.blit lvl.cuts id f.iterbuf;
      g f.iterbuf lvl.payloads.(id)
    done

  let fold g acc f =
    let lvl = f.cur in
    let acc = ref acc in
    for i = 0 to size f - 1 do
      let id = lvl.order.(i) in
      Cutset.blit lvl.cuts id f.iterbuf;
      acc := g !acc f.iterbuf lvl.payloads.(id)
    done;
    !acc

  let find f cut =
    match Cutset.find f.cur.cuts cut with
    | Some id -> Some f.cur.payloads.(id)
    | None -> None

  let min_components_into f floor =
    let w = width f in
    if Array.length floor <> w then invalid_arg "Frontier.min_components_into: wrong width";
    for i = 0 to w - 1 do
      floor.(i) <- max_int
    done;
    for id = 0 to size f - 1 do
      for i = 0 to w - 1 do
        let v = Cutset.get f.cur.cuts id i in
        if v < floor.(i) then floor.(i) <- v
      done
    done

  let level_words lvl =
    Cutset.mem_words lvl.cuts + Array.length lvl.order + Array.length lvl.payloads + 6

  let mem_words f = level_words f.cur + level_words f.spare + (3 * (width f + 1)) + 6

  (* One level step into the spare buffer.  Every frontier cut is
     expanded, in canonical order, through the threads [enabled] lists;
     the first expansion to reach a successor cut makes its payload
     with [step], later ones fold into it with [join].  A nonempty next
     level becomes current and the old one is cleared into the spare,
     unless it is sized for over four times the new level's cuts (and
     over 16): then the spare is rebuilt at twice the new level's size,
     so a frontier that narrows gives a wide level's storage back. *)
  let advance_body ~enabled ~step ~join f =
    let src = f.cur and dst = f.spare in
    let n = size f in
    for i = 0 to n - 1 do
      let id = src.order.(i) in
      Cutset.blit src.cuts id f.cutbuf;
      let p = src.payloads.(id) in
      for k = 0 to enabled f.cutbuf f.tids - 1 do
        let tid = f.tids.(k) in
        let fresh = Cutset.count dst.cuts in
        let nid = Cutset.intern_succ dst.cuts ~src:src.cuts ~src_id:id ~tid in
        if nid = fresh then set_payload dst nid (step p f.cutbuf tid)
        else dst.payloads.(nid) <- join dst.payloads.(nid) p f.cutbuf tid
      done
    done;
    if M.deep_enabled () then Cutset.flush_stats dst.cuts;
    if Cutset.count dst.cuts = 0 then false
    else begin
      sort_level dst;
      let m = Cutset.count dst.cuts in
      if Array.length src.payloads > 4 * max 4 m then
        f.spare <- level_create ~width:(Cutset.width src.cuts) (2 * m)
      else begin
        Cutset.clear src.cuts;
        for id = 0 to n - 1 do
          src.payloads.(id) <- P.dummy
        done;
        f.spare <- src
      end;
      f.cur <- dst;
      true
    end

  let advance ~enabled ~step ~join f =
    if M.deep_enabled () then begin
      M.incr m_levels;
      M.observe m_level_cuts (size f)
    end;
    if Telemetry.Span.enabled () then
      Telemetry.Span.with_ ~name:"frontier.expand" (fun () ->
          advance_body ~enabled ~step ~join f)
    else advance_body ~enabled ~step ~join f
end

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

  let insert_at t (a : int array) off s =
    let id = t.count in
    ensure_arena t;
    Array.blit a off t.arena (id * t.width) t.width;
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
  let blit t id dst = Array.blit t.arena (id * t.width) dst 0 t.width
  let to_array t id = Array.sub t.arena (id * t.width) t.width

  (* Successor cut of [src_id] in [src] with component [tid] bumped,
     interned into [t] without allocating: the candidate goes through
     [t.scratch]. *)
  let intern_succ t ~src ~src_id ~tid =
    Array.blit src.arena (src_id * src.width) t.scratch 0 t.width;
    t.scratch.(tid) <- t.scratch.(tid) + 1;
    intern_off t t.scratch 0

  let compare_ids t a b =
    let ba = a * t.width and bb = b * t.width in
    let rec go i =
      if i = t.width then 0
      else
        let c = compare t.arena.(ba + i) t.arena.(bb + i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
end

module type PAYLOAD = sig
  type t

  val merge : t -> t -> t
  (** Must be associative; called when two expansions reach the same cut. *)
end

(* A growable array that needs no dummy element: growth reuses the
   pushed element as filler. *)
type 'a buf = { mutable data : 'a array; mutable len : int }

let buf_make () = { data = [||]; len = 0 }

let buf_push b x =
  if b.len = Array.length b.data then begin
    let data = Array.make (max 8 (2 * b.len)) x in
    Array.blit b.data 0 data 0 b.len;
    b.data <- data
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

module Make (P : PAYLOAD) = struct
  type frontier = {
    cuts : Cutset.t;
    order : int array;  (* canonical (lexicographic) iteration order -> cut id *)
    payloads : P.t array;  (* indexed by cut id *)
  }

  let singleton ~width cut payload =
    let cuts = Cutset.create ~capacity:4 ~width () in
    let id = Cutset.intern cuts cut in
    { cuts; order = [| id |]; payloads = [| payload |] }

  (* Rebuild a level from an explicit cut/payload list (checkpoint
     restore).  Duplicated cuts fold through [P.merge] in list order;
     the iteration order is re-sorted, so a frontier rebuilt from any
     permutation of [fold]'s output is identical to the original. *)
  let of_list ~width entries =
    if entries = [] then invalid_arg "Frontier.of_list: empty level";
    let cuts = Cutset.create ~capacity:(List.length entries) ~width () in
    let payloads = buf_make () in
    List.iter
      (fun (cut, payload) ->
        let id = Cutset.intern cuts cut in
        if id = payloads.len then buf_push payloads payload
        else payloads.data.(id) <- P.merge payloads.data.(id) payload)
      entries;
    let order = Array.init (Cutset.count cuts) Fun.id in
    Array.sort (Cutset.compare_ids cuts) order;
    { cuts; order; payloads = Array.sub payloads.data 0 payloads.len }

  let size f = Array.length f.order
  let width f = Cutset.width f.cuts

  let iter g f =
    let buf = Array.make (width f) 0 in
    Array.iter
      (fun id ->
        Cutset.blit f.cuts id buf;
        g buf f.payloads.(id))
      f.order

  let fold g acc f =
    let buf = Array.make (width f) 0 in
    Array.fold_left
      (fun acc id ->
        Cutset.blit f.cuts id buf;
        g acc buf f.payloads.(id))
      acc f.order

  let find f cut =
    match Cutset.find f.cuts cut with
    | Some id -> Some f.payloads.(id)
    | None -> None

  let min_components f =
    let w = width f in
    let floor = Array.make w max_int in
    Array.iter
      (fun id ->
        for i = 0 to w - 1 do
          let v = Cutset.get f.cuts id i in
          if v < floor.(i) then floor.(i) <- v
        done)
      f.order;
    floor

  let mem_words f =
    Cutset.mem_words f.cuts + Array.length f.order + Array.length f.payloads

  (* One level step.  Every frontier cut is expanded, in canonical
     order, through [moves] (which must not retain its scratch argument)
     and [transition]; successors landing on the same cut are combined
     with [P.merge] in that order, and the output order is re-sorted. *)
  let expand_body ~moves ~transition f =
    let n = size f in
    let w = width f in
    let cuts = Cutset.create ~capacity:(max 4 (2 * n)) ~width:w () in
    let payloads = buf_make () in
    let cutbuf = Array.make w 0 in
    Array.iter
      (fun id ->
        Cutset.blit f.cuts id cutbuf;
        let p = f.payloads.(id) in
        List.iter
          (fun (tid, m) ->
            let p' = transition p ~tid m in
            let nid = Cutset.intern_succ cuts ~src:f.cuts ~src_id:id ~tid in
            if nid = payloads.len then buf_push payloads p'
            else payloads.data.(nid) <- P.merge payloads.data.(nid) p')
          (moves cutbuf))
      f.order;
    if M.deep_enabled () then Cutset.flush_stats cuts;
    let order = Array.init (Cutset.count cuts) Fun.id in
    Array.sort (Cutset.compare_ids cuts) order;
    { cuts; order; payloads = Array.sub payloads.data 0 payloads.len }

  let expand ~moves ~transition f =
    if M.deep_enabled () then begin
      M.incr m_levels;
      M.observe m_level_cuts (size f)
    end;
    if Telemetry.Span.enabled () then
      Telemetry.Span.with_ ~name:"frontier.expand" (fun () ->
          expand_body ~moves ~transition f)
    else expand_body ~moves ~transition f
end

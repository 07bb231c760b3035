open Trace
module M = Telemetry.Metrics

let m_level_cuts = M.series "online.level_cuts"
let m_retired = M.counter "online.retired_cuts"
let m_monitor_steps = M.counter "online.monitor_steps"
let m_violations = M.counter "online.violations"
let m_gc_removed = M.counter "online.gc_removed"
let m_max_buffered = M.gauge "online.max_buffered"
let m_peak_buffered = M.gauge "online.peak_buffered"

exception Backpressure of { buffered : int; limit : int }

module Smap = Map.Make (String)

(* {1 Interned global states}

   A global state is an [int array] indexed by slot: one slot per
   variable of the initial state and of the specification, numbered
   once, and the spec's atoms are compiled to closures reading those
   slots.  A message's slot is resolved when it is stored, so a lattice
   transition is an array copy and one write.

   [listed] slots are bound in every state (the initial variables), so
   their bindings are read straight off the array.  Every other binding
   (a spec variable written for the first time, or a variable outside
   both sets, which no predicate reads) also goes on the entry's side
   map: together they reproduce the [Pastltl.State.t] the map-based
   sweep built, binding for binding. *)
type layout = {
  slot_of : (Types.var, int) Hashtbl.t;
  listed : bool array;  (* per slot *)
  listed_sorted : (Types.var * int) array;  (* listed slots, by name *)
  atoms : (int array -> bool) array;  (* the monitor's atoms, over slots *)
}

let make_layout ~listed:listed_vars ~spec monitor =
  let slot_of = Hashtbl.create 16 in
  let names = ref [] in
  let add x =
    if not (Hashtbl.mem slot_of x) then begin
      Hashtbl.add slot_of x (Hashtbl.length slot_of);
      names := x :: !names
    end
  in
  List.iter add listed_vars;
  let nlisted = Hashtbl.length slot_of in
  List.iter add (Pastltl.Formula.vars spec);
  let listed = Array.init (Hashtbl.length slot_of) (fun s -> s < nlisted) in
  let listed_sorted =
    List.filter_map
      (fun x ->
        let s = Hashtbl.find slot_of x in
        if listed.(s) then Some (x, s) else None)
      !names
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> Array.of_list
  in
  let atoms =
    Array.map
      (Pastltl.Predicate.compile ~slot:(Hashtbl.find slot_of))
      (Pastltl.Monitor.atoms monitor)
  in
  { slot_of; listed; listed_sorted; atoms }

let var_slot lay x = match Hashtbl.find lay.slot_of x with s -> s | exception Not_found -> -1

(* A cut's payload: its global state, the set of monitor states its
   paths reach (an {!Msets} id) and the letter of its state, the atoms'
   truth over it, computed once when the cut is first reached.  Each
   entry belongs to one cut: a second path into the cut replaces [sid]
   in place, and [compact_msets] renumbers both ids. *)
type entry = {
  vals : int array;
  side : Types.value Smap.t;
  mutable sid : int;
  mutable letter : int;
}

module F = Observer.Frontier.Make (struct
  type t = entry

  let dummy = { vals = [||]; side = Smap.empty; sid = -1; letter = 0 }
end)

(* The entry's state as name-ordered bindings: the listed slots merged
   with the side map. *)
let bindings lay e =
  let rec merge i side =
    if i = Array.length lay.listed_sorted then side
    else
      let x, s = lay.listed_sorted.(i) in
      match side with
      | (y, v) :: rest when String.compare y x < 0 -> (y, v) :: merge i rest
      | _ -> (x, e.vals.(s)) :: merge (i + 1) side
  in
  merge 0 (Smap.bindings e.side)

let to_state lay e = Pastltl.State.of_list (bindings lay e)

(* {1 The message store}

   One log per thread, indexed by [seq]: blocks of [block_size] slots
   holding the message and its variable's slot.  A block is at most 256
   words, so it is allocated on the minor heap (a larger or doubling
   array would go to the major heap and, by pacing the major GC
   differently, keep garbage alive longer).

   Blocks near the gc floor sit on a dense spine: the spine reaches at
   most [spine_slack] blocks past its last entry, so its length follows
   the stored blocks.  A block further ahead (a message sent far out of
   order, or a forged sequence number) waits in a map keyed by block
   number and moves onto the spine once the spine comes within
   [spine_slack] of it; the contiguous prefix, which is what the lattice
   reads, therefore always lies on the spine.  Blocks below the gc floor
   are dropped from the spine as the floor passes them, so a log's size
   follows the stored messages, never the floor or the largest [seq]. *)

let block_bits = 8
let block_size = 1 lsl block_bits
let block_mask = block_size - 1
let spine_slack = 4

module Imap = Map.Make (Int)

type block = { msgs : Message.t array; mslots : int array }

let no_message =
  Message.make ~eid:(-1) ~tid:0 ~var:"" ~value:0 ~mvc:(Vclock.of_list [ 1 ])

let no_block = { msgs = [||]; mslots = [||] }

type log = {
  mutable first : int;  (* block number of [spine.(0)] *)
  mutable spine : block array;  (* [no_block]: nothing stored there yet *)
  mutable nblocks : int;  (* used prefix of [spine] *)
  mutable far : block Imap.t;
      (* by block number, each at least [nblocks + spine_slack] past [first] *)
  mutable nfar : int;  (* bindings in [far] *)
  mutable live : int;  (* allocated blocks, on the spine or far *)
}

let log_create ~floor =
  { first = floor lsr block_bits; spine = [||]; nblocks = 0; far = Imap.empty; nfar = 0;
    live = 0 }

let block_of l k =
  let b = ((k - 1) lsr block_bits) - l.first in
  if b < l.nblocks then l.spine.(b)
  else if Imap.is_empty l.far then no_block
  else match Imap.find (b + l.first) l.far with blk -> blk | exception Not_found -> no_block

let log_find l k =
  let blk = block_of l k in
  if blk == no_block then no_message else blk.msgs.((k - 1) land block_mask)

(* The block holding a message of the contiguous prefix; unchecked. *)
let log_block l k = l.spine.(((k - 1) lsr block_bits) - l.first)

(* Put [blk] at spine position [b], growing the spine. *)
let place l b blk =
  if b >= Array.length l.spine then begin
    let spine = Array.make (max (b + 1) (2 * Array.length l.spine)) no_block in
    Array.blit l.spine 0 spine 0 l.nblocks;
    l.spine <- spine
  end;
  l.spine.(b) <- blk;
  if b >= l.nblocks then l.nblocks <- b + 1

(* Move the far blocks the spine now reaches onto it. *)
let rec settle l =
  match Imap.min_binding_opt l.far with
  | Some (n, blk) when n - l.first < l.nblocks + spine_slack ->
      l.far <- Imap.remove n l.far;
      l.nfar <- l.nfar - 1;
      place l (n - l.first) blk;
      settle l
  | _ -> ()

let new_block l =
  l.live <- l.live + 1;
  { msgs = Array.make block_size no_message; mslots = Array.make block_size (-1) }

(* Store [m] at [k > floor]; [true] when the slot was empty. *)
let log_add l k m slot =
  let blk =
    match block_of l k with
    | blk when blk != no_block -> blk
    | _ ->
        let n = (k - 1) lsr block_bits in
        let blk = new_block l in
        if n - l.first < l.nblocks + spine_slack then begin
          place l (n - l.first) blk;
          settle l
        end
        else begin
          l.far <- Imap.add n blk l.far;
          l.nfar <- l.nfar + 1
        end;
        blk
  in
  let j = (k - 1) land block_mask in
  let fresh = blk.msgs.(j) == no_message in
  blk.msgs.(j) <- m;
  blk.mslots.(j) <- slot;
  fresh

(* Forget messages [old_floor+1 .. floor], all of them in the contiguous
   prefix and so on the spine: whole blocks leave the spine, the block
   the floor now falls in is cleared up to it. *)
let log_drop l ~old_floor ~floor =
  let first = floor lsr block_bits in
  let d = first - l.first in
  if d > 0 then begin
    for b = 0 to min d l.nblocks - 1 do
      if l.spine.(b) != no_block then l.live <- l.live - 1
    done;
    let keep = max 0 (l.nblocks - d) in
    Array.blit l.spine (min d l.nblocks) l.spine 0 keep;
    Array.fill l.spine keep (l.nblocks - keep) no_block;
    l.nblocks <- keep;
    l.first <- first;
    settle l
  end;
  if l.nblocks > 0 && l.spine.(0) != no_block then
    for k = max (old_floor + 1) ((first lsl block_bits) + 1) to floor do
      l.spine.(0).msgs.((k - 1) land block_mask) <- no_message
    done

(* Stored messages with [from < seq], ascending, consed onto [acc]:
   only allocated blocks are visited, the far ones (all past the spine)
   first. *)
let log_fold_desc l ~from acc =
  let acc = ref acc in
  let add n blk =
    for j = block_size - 1 downto 0 do
      let m = blk.msgs.(j) in
      if m != no_message && (n lsl block_bits) + j + 1 > from then acc := m :: !acc
    done
  in
  List.iter (fun (n, blk) -> add n blk) (Imap.fold (fun n blk bs -> (n, blk) :: bs) l.far []);
  for b = l.nblocks - 1 downto 0 do
    if l.spine.(b) != no_block then add (l.first + b) l.spine.(b)
  done;
  !acc

type violation = {
  cut : int array;
  level : int;
  state : Pastltl.State.t;
  monitor_state : Pastltl.Monitor.state;
}

(* The report keeps the first violations in level order, so its memory
   stays bounded however many (cut, monitor-state) pairs go bad. *)
let max_violations = 1000

type gc_stats = {
  retired_cuts : int;
  peak_frontier_cuts : int;
  peak_frontier_entries : int;
  monitor_steps : int;
}

type t = {
  nthreads : int;
  monitor : Pastltl.Monitor.compiled;
  layout : layout;
  msets : Msets.t;  (* the monitor-state sets and the automaton over them *)
  atom_values : bool array;  (* scratch: a wide letter's atom values *)
  spec : Pastltl.Formula.t;
  max_buffered : int option;  (* bound on out-of-order buffered messages *)
  (* Message store: per-thread logs, plus contiguous prefix lengths and
     out-of-order buffer counts. *)
  logs : log array;
  mutable stored : int;  (* messages in the logs *)
  prefix : int array;  (* per thread: largest k with 1..k all received *)
  beyond : int array;  (* per thread: received messages with index > prefix *)
  gc_floor : int array;  (* per thread: messages 1..gc_floor already collected *)
  ended : bool array;
  (* Frontier: cuts of the current level, on the shared engine's
     two-level sweep. *)
  frontier : F.frontier;
  floor : int array;  (* scratch: the frontier's minimum components *)
  mutable level : int;
  mutable done_ : bool;  (* the frontier can never advance again *)
  mutable rev_violations : violation list;
  mutable n_violations : int;  (* length of [rev_violations] *)
  mutable retired_cuts : int;
  mutable peak_frontier_cuts : int;
  mutable peak_frontier_entries : int;
  mutable monitor_steps : int;
  mutable failing : bool;  (* a monitor state stepped on this level fails *)
  mutable entries : int;  (* (cut, monitor state) pairs of the level being built *)
  (* The sweep's callbacks, built once per observer so that a level
     step allocates no closures. *)
  sweep_enabled : int array -> int array -> int;
  sweep_step : entry -> int array -> int -> entry;
  sweep_join : entry -> entry -> int array -> int -> entry;
}

let record_level_stats t ~entries =
  t.peak_frontier_cuts <- max t.peak_frontier_cuts (F.size t.frontier);
  t.peak_frontier_entries <- max t.peak_frontier_entries entries

let record_violations t =
  if t.n_violations < max_violations then
    F.iter
      (fun cut entry ->
        List.iter
          (fun m ->
            if t.n_violations < max_violations && not (Pastltl.Monitor.verdict t.monitor m)
            then begin
              if M.enabled () then M.incr m_violations;
              t.n_violations <- t.n_violations + 1;
              t.rev_violations <-
                { cut = Array.copy cut;
                  level = t.level;
                  state = to_state t.layout entry;
                  monitor_state = m }
                :: t.rev_violations
            end)
          (Msets.elements t.msets entry.sid))
      t.frontier

(* The letter of [vals]: the atoms' truth as a bit mask, or interned
   when there are more atoms than an int has bits. *)
let letter_of layout msets atom_values vals =
  let atoms = layout.atoms in
  if Msets.narrow msets then begin
    let l = ref 0 in
    for a = 0 to Array.length atoms - 1 do
      if atoms.(a) vals then l := !l lor (1 lsl a)
    done;
    !l
  end
  else begin
    for a = 0 to Array.length atoms - 1 do
      atom_values.(a) <- atoms.(a) vals
    done;
    Msets.intern_letter msets atom_values
  end

(* Level L+1 can involve, per thread i, only events with index <= L+1;
   safe to advance when each thread has delivered that much or is done
   delivering. *)
let can_advance t =
  (not t.done_)
  && (let ok = ref true in
      for i = 0 to t.nthreads - 1 do
        let have_enough = t.prefix.(i) >= t.level + 1 in
        let finished = t.ended.(i) && t.beyond.(i) = 0 in
        if not (have_enough || finished) then ok := false
      done;
      !ok)

(* Threads whose next delivered event is enabled at [cut] (every other
   component of its clock inside the cut), ascending, into [tids]. *)
let enabled t cut tids =
  let count = ref 0 in
  for i = 0 to t.nthreads - 1 do
    let k = cut.(i) + 1 in
    if k <= t.prefix.(i) then begin
      let m = (log_block t.logs.(i) k).msgs.((k - 1) land block_mask) in
      let mvc = (m.Message.mvc :> int array) in
      let ok = ref true and j = ref 0 in
      while !ok && !j < t.nthreads do
        if !j <> i && mvc.(!j) > cut.(!j) then ok := false;
        incr j
      done;
      if !ok then begin
        tids.(!count) <- i;
        incr count
      end
    end
  done;
  !count

(* Set [sid] stepped over [letter]: one memo lookup.  Every monitor
   state of the set counts as a step, as if stepped one by one, and a
   failing result flags the level for [record_violations]; every set
   of a new level comes through here, so a level with no flag has no
   violation to record. *)
let transition t sid letter =
  t.monitor_steps <- t.monitor_steps + Msets.cardinal t.msets sid;
  let next = Msets.step t.msets sid letter in
  if Msets.failing t.msets next then t.failing <- true;
  next

(* The lattice transition through [tid]'s next event at [cut]: the
   message applied to the entry's state, its letter, and the entry's
   set stepped over that letter. *)
let step t entry cut tid =
  let k = cut.(tid) + 1 in
  let blk = log_block t.logs.(tid) k in
  let j = (k - 1) land block_mask in
  let m = blk.msgs.(j) and slot = blk.mslots.(j) in
  let vals =
    if slot < 0 then entry.vals
    else begin
      let vals = Array.copy entry.vals in
      vals.(slot) <- m.Message.value;
      vals
    end
  in
  let side =
    if slot >= 0 && t.layout.listed.(slot) then entry.side
    else Smap.add m.Message.var m.Message.value entry.side
  in
  let letter = if slot < 0 then entry.letter else letter_of t.layout t.msets t.atom_values vals in
  let sid = transition t entry.sid letter in
  t.entries <- t.entries + Msets.cardinal t.msets sid;
  { vals; side; sid; letter }

(* A second path into a successor [q] already holds: the global state
   there is [q]'s by construction, so the incoming set is stepped over
   [q]'s letter and joins [q]'s set. *)
let join t q entry _cut _tid =
  let sid = transition t entry.sid q.letter in
  if sid <> q.sid then begin
    let union = Msets.union t.msets q.sid sid in
    t.entries <- t.entries + Msets.cardinal t.msets union - Msets.cardinal t.msets q.sid;
    q.sid <- union
  end;
  q

let make ?max_buffered ~monitor ~layout ~msets ~spec ~prefix ~beyond ~gc_floor ~ended frontier =
  let rec t =
    { nthreads = Array.length prefix;
      monitor;
      layout;
      msets;
      atom_values = Array.make (Array.length layout.atoms) false;
      spec;
      max_buffered;
      logs = Array.map (fun floor -> log_create ~floor) gc_floor;
      stored = 0;
      prefix = Array.copy prefix;
      beyond = Array.copy beyond;
      gc_floor = Array.copy gc_floor;
      ended = Array.copy ended;
      frontier;
      floor = Array.make (Array.length prefix) 0;
      level = 0;
      done_ = false;
      rev_violations = [];
      n_violations = 0;
      retired_cuts = 0;
      peak_frontier_cuts = 0;
      peak_frontier_entries = 0;
      monitor_steps = 1;
      failing = false;
      entries = 0;
      sweep_enabled = (fun cut tids -> enabled t cut tids);
      sweep_step = (fun entry cut tid -> step t entry cut tid);
      sweep_join = (fun q entry cut tid -> join t q entry cut tid) }
  in
  t

let create ?max_buffered ~nthreads ~init ~spec () =
  if nthreads <= 0 then invalid_arg "Online.create: nthreads must be positive";
  (match max_buffered with
  | Some k when k < 0 -> invalid_arg "Online.create: max_buffered must be >= 0"
  | Some k -> if M.enabled () then M.set m_max_buffered k
  | None -> ());
  let monitor = Pastltl.Monitor.compile spec in
  let layout = make_layout ~listed:(List.map fst init) ~spec monitor in
  let init_state = Pastltl.State.of_list init in
  let vals = Array.make (Array.length layout.listed) 0 in
  Array.iter (fun (x, s) -> vals.(s) <- Pastltl.State.get init_state x) layout.listed_sorted;
  let values = Array.map (fun atom -> atom vals) layout.atoms in
  let msets = Msets.create monitor in
  let sid = Msets.of_states msets [ Pastltl.Monitor.init_atoms monitor values ] in
  let letter = letter_of layout msets values vals in
  let zeros = Array.make nthreads 0 in
  let t =
    make ?max_buffered ~monitor ~layout ~msets ~spec ~prefix:zeros ~beyond:zeros
      ~gc_floor:zeros ~ended:(Array.make nthreads false)
      (F.singleton ~width:nthreads zeros { vals; side = Smap.empty; sid; letter })
  in
  record_level_stats t ~entries:1;
  record_violations t;
  t

(* What the automaton's tables may hold once a level is built: what
   its entries keep (at most one set and one letter a cut, at most one
   monitor state an entry), what the next level's transitions and
   unions can add (a set and a memo entry each, at most [nthreads] of
   them a cut), and a few hundred more, so a small frontier does not
   compact every level. *)
let msets_limit t = 256 + (4 * (t.nthreads + 1) * F.size t.frontier) + (2 * t.entries)

(* Keep only the sets and letters the frontier's entries hold, once the
   tables outgrow what the level can use: their size follows the live
   frontier, not the stream. *)
let compact_msets t =
  if Msets.population t.msets > msets_limit t then
    Msets.compact t.msets (fun ~set ~letter ->
        F.iter
          (fun _ e ->
            e.sid <- set e.sid;
            e.letter <- letter e.letter)
          t.frontier)

let rec advance_one_level_body t =
  let retiring = F.size t.frontier and steps = t.monitor_steps in
  t.failing <- false;
  t.entries <- 0;
  let advanced =
    F.advance ~enabled:t.sweep_enabled ~step:t.sweep_step ~join:t.sweep_join t.frontier
  in
  if M.deep_enabled () then M.add m_monitor_steps (t.monitor_steps - steps);
  if not advanced then t.done_ <- true
  else begin
    t.retired_cuts <- t.retired_cuts + retiring;
    if M.deep_enabled () then begin
      M.add m_retired retiring;
      M.push m_level_cuts (F.size t.frontier)
    end;
    t.level <- t.level + 1;
    record_level_stats t ~entries:t.entries;
    if t.failing then record_violations t;
    compact_msets t;
    gc_store t
  end

(* A message (i, k) can never be consumed again once every frontier cut
   already contains it; successors of the frontier only grow. Dropping
   such messages is the paper's "garbage-collected while the analysis
   process continues". *)
and gc_store t =
  (* The frontier's minimum components only grow level over level, so
     [gc_floor] records what previous sweeps already collected and each
     message is dropped exactly once over the whole run; all of
     [gc_floor+1 .. floor] lies in the contiguous prefix. *)
  F.min_components_into t.frontier t.floor;
  let floor = t.floor in
  for i = 0 to t.nthreads - 1 do
    if floor.(i) > t.gc_floor.(i) then begin
      log_drop t.logs.(i) ~old_floor:t.gc_floor.(i) ~floor:floor.(i);
      t.stored <- t.stored - (floor.(i) - t.gc_floor.(i));
      if M.deep_enabled () then M.add m_gc_removed (floor.(i) - t.gc_floor.(i));
      t.gc_floor.(i) <- floor.(i)
    end
  done

let advance_one_level t =
  if Telemetry.Span.enabled () then
    Telemetry.Span.with_ ~name:"online.level" (fun () -> advance_one_level_body t)
  else advance_one_level_body t

let pump t =
  while can_advance t do
    advance_one_level t
  done

let total_beyond t = Array.fold_left ( + ) 0 t.beyond

let feed t (m : Message.t) =
  if m.tid < 0 || m.tid >= t.nthreads then invalid_arg "Online.feed: thread id out of range";
  let seq = Message.seq m in
  let log = t.logs.(m.tid) in
  if seq <= t.prefix.(m.tid) || log_find log seq != no_message then
    invalid_arg "Online.feed: duplicate message";
  if t.ended.(m.tid) then invalid_arg "Online.feed: thread already ended";
  (match t.max_buffered with
  | Some limit when seq > t.prefix.(m.tid) + 1 ->
      let buffered = total_beyond t in
      if buffered >= limit then raise (Backpressure { buffered; limit })
  | _ -> ());
  ignore (log_add log seq m (var_slot t.layout m.var));
  t.stored <- t.stored + 1;
  if seq = t.prefix.(m.tid) + 1 then begin
    (* Extend the contiguous prefix as far as buffered messages allow. *)
    let k = ref seq in
    while log_find log (!k + 1) != no_message do
      incr k;
      t.beyond.(m.tid) <- t.beyond.(m.tid) - 1
    done;
    t.prefix.(m.tid) <- !k
  end
  else t.beyond.(m.tid) <- t.beyond.(m.tid) + 1;
  if M.deep_enabled () then M.set_max m_peak_buffered (total_beyond t);
  pump t

let feed_all t ms = List.iter (feed t) ms

let end_of_thread t tid =
  if tid < 0 || tid >= t.nthreads then invalid_arg "Online.end_of_thread: bad thread id";
  t.ended.(tid) <- true;
  pump t

let finish t =
  for i = 0 to t.nthreads - 1 do
    if t.beyond.(i) > 0 then
      invalid_arg
        (Printf.sprintf "Online.finish: thread %d is missing message %d" i (t.prefix.(i) + 1));
    t.ended.(i) <- true
  done;
  pump t

(* {1 Checkpoint support}

   A snapshot captures, in plain serializable values, everything the
   analyzer needs to continue a run: the current frontier level (cuts,
   global states, monitor-state sets), the message store with its
   prefix/out-of-order/gc bookkeeping, the violations found so far and
   the gc statistics.  Monitor states travel as bit strings
   ({!Pastltl.Monitor.state_to_string}) so a snapshot is independent of
   the compiled monitor's in-memory form, and {!restore} re-derives the
   monitor from the specification — a snapshot taken under one spec can
   never silently restore under another. *)

type snapshot = {
  snap_nthreads : int;
  snap_level : int;
  snap_done : bool;
  snap_prefix : int array;
  snap_beyond : int array;
  snap_gc_floor : int array;
  snap_ended : bool array;
  snap_store : Message.t list;
  snap_frontier : (int array * (Types.var * Types.value) list * string list) list;
  snap_violations : (int array * int * (Types.var * Types.value) list * string) list;
  snap_retired_cuts : int;
  snap_peak_frontier_cuts : int;
  snap_peak_frontier_entries : int;
  snap_monitor_steps : int;
}

(* Stored messages past [from.(tid)], ascending [(tid, seq)]. *)
let stored_after t from =
  let acc = ref [] in
  for i = t.nthreads - 1 downto 0 do
    acc := log_fold_desc t.logs.(i) ~from:from.(i) !acc
  done;
  !acc

let snapshot t =
  let frontier =
    F.fold
      (fun acc cut e ->
        ( Array.copy cut,
          bindings t.layout e,
          List.map Pastltl.Monitor.state_to_string (Msets.elements t.msets e.sid) )
        :: acc)
      [] t.frontier
    |> List.rev
  in
  let violations =
    List.rev_map
      (fun v ->
        ( Array.copy v.cut,
          v.level,
          Pastltl.State.to_list v.state,
          Pastltl.Monitor.state_to_string v.monitor_state ))
      t.rev_violations
  in
  { snap_nthreads = t.nthreads;
    snap_level = t.level;
    snap_done = t.done_;
    snap_prefix = Array.copy t.prefix;
    snap_beyond = Array.copy t.beyond;
    snap_gc_floor = Array.copy t.gc_floor;
    snap_ended = Array.copy t.ended;
    snap_store = stored_after t t.gc_floor;
    snap_frontier = frontier;
    snap_violations = violations;
    snap_retired_cuts = t.retired_cuts;
    snap_peak_frontier_cuts = t.peak_frontier_cuts;
    snap_peak_frontier_entries = t.peak_frontier_entries;
    snap_monitor_steps = t.monitor_steps }

(* The variables bound in every frontier state: at least the initial
   ones, and bound in every later state too, since states only gain
   bindings. *)
let always_bound frontier =
  match frontier with
  | [] -> []
  | (_, first, _) :: rest ->
      List.filter
        (fun (x, _) -> List.for_all (fun (_, bs, _) -> List.mem_assoc x bs) rest)
        first
      |> List.map fst

let restore ?max_buffered ~spec s =
  let n = s.snap_nthreads in
  if n <= 0 then invalid_arg "Online.restore: nthreads must be positive";
  let check_width what a =
    if Array.length a <> n then
      invalid_arg (Printf.sprintf "Online.restore: %s has width %d, expected %d" what
                     (Array.length a) n)
  in
  check_width "prefix" s.snap_prefix;
  check_width "beyond" s.snap_beyond;
  check_width "gc_floor" s.snap_gc_floor;
  if Array.length s.snap_ended <> n then invalid_arg "Online.restore: bad ended width";
  if s.snap_frontier = [] then invalid_arg "Online.restore: empty frontier";
  let monitor = Pastltl.Monitor.compile spec in
  let layout = make_layout ~listed:(always_bound s.snap_frontier) ~spec monitor in
  let mstate bits =
    match Pastltl.Monitor.state_of_string monitor bits with
    | Some m -> m
    | None ->
        invalid_arg
          "Online.restore: monitor state does not fit the specification \
           (snapshot taken under a different spec?)"
  in
  let msets = Msets.create monitor in
  let atom_values = Array.make (Array.length layout.atoms) false in
  let entry bindings states =
    let vals = Array.make (Array.length layout.listed) 0 in
    let side =
      List.fold_left
        (fun side (x, v) ->
          let slot = var_slot layout x in
          if slot >= 0 then vals.(slot) <- v;
          if slot >= 0 && layout.listed.(slot) then side else Smap.add x v side)
        Smap.empty bindings
    in
    { vals;
      side;
      sid = Msets.of_states msets states;
      letter = letter_of layout msets atom_values vals }
  in
  let entries =
    List.map
      (fun (cut, bindings, states) ->
        check_width "frontier cut" cut;
        if states = [] then invalid_arg "Online.restore: cut with no monitor states";
        (cut, entry bindings (List.map mstate states)))
      s.snap_frontier
  in
  Array.iteri
    (fun i floor ->
      if floor < 0 || floor > s.snap_prefix.(i) then
        invalid_arg "Online.restore: gc floor outside the delivered prefix")
    s.snap_gc_floor;
  let t =
    make ?max_buffered ~monitor ~layout ~msets ~spec ~prefix:s.snap_prefix ~beyond:s.snap_beyond
      ~gc_floor:s.snap_gc_floor ~ended:s.snap_ended (F.of_list ~width:n entries)
  in
  List.iter
    (fun (m : Message.t) ->
      if m.tid < 0 || m.tid >= n then invalid_arg "Online.restore: stored tid out of range";
      let seq = Message.seq m in
      if seq <= t.gc_floor.(m.tid) then
        invalid_arg "Online.restore: stored message at or below the gc floor";
      if log_add t.logs.(m.tid) seq m (var_slot layout m.var) then t.stored <- t.stored + 1)
    s.snap_store;
  Array.iteri
    (fun i l ->
      for k = t.gc_floor.(i) + 1 to t.prefix.(i) do
        if log_find l k == no_message then
          invalid_arg "Online.restore: the delivered prefix has a stored gap"
      done)
    t.logs;
  t.level <- s.snap_level;
  t.done_ <- s.snap_done;
  t.rev_violations <-
    List.rev_map
      (fun (cut, level, bindings, bits) ->
        { cut; level; state = Pastltl.State.of_list bindings; monitor_state = mstate bits })
      s.snap_violations;
  t.n_violations <- List.length s.snap_violations;
  t.retired_cuts <- s.snap_retired_cuts;
  t.peak_frontier_cuts <- s.snap_peak_frontier_cuts;
  t.peak_frontier_entries <- s.snap_peak_frontier_entries;
  t.monitor_steps <- s.snap_monitor_steps;
  t

let violated t = t.rev_violations <> []
let violations t = List.rev t.rev_violations
let level t = t.level
let frontier_cuts t = F.size t.frontier

(* Words per stored message: the message record (5 fields + header) and
   its clock (nthreads + header).  Per allocated log block: two
   256-slot arrays with their headers and the block record; per spine
   entry one word; per block held far ahead one map node (5 fields +
   header).  The frontier term counts both of the sweep's level buffers
   (the spare keeps the storage of the widest level it has held) and is
   the dominant one under a wide workload; the automaton's tables
   follow the frontier.  The compiled specification (the monitor, its
   formula and the atoms compiled over slots) takes about 12 words a
   subformula and 16 more an atom.  All of it is O(threads) arithmetic
   over maintained counters, cheap enough to evaluate after every
   feed. *)
let block_words = (2 * (block_size + 1)) + 3

let spec_words t =
  (12 * Pastltl.Monitor.width t.monitor) + (16 * Array.length t.layout.atoms) + 40

let mem_words t =
  let store =
    Array.fold_left
      (fun acc l ->
        acc + (block_words * l.live) + Array.length l.spine + (6 * l.nfar) + 7)
      0 t.logs
  in
  F.mem_words t.frontier + Msets.mem_words t.msets + ((t.nthreads + 7) * t.stored) + store
  + (6 * t.nthreads) + spec_words t

let handoff t = (Array.copy t.prefix, Array.copy t.ended, stored_after t t.prefix)
let buffered t = t.stored
let out_of_order t = total_beyond t

let missing t =
  let rec go i =
    if i >= t.nthreads then None
    else if t.beyond.(i) > 0 then Some (i, t.prefix.(i) + 1)
    else go (i + 1)
  in
  go 0

let next_index t tid = t.prefix.(tid) + 1

let gc_stats t =
  { retired_cuts = t.retired_cuts;
    peak_frontier_cuts = t.peak_frontier_cuts;
    peak_frontier_entries = t.peak_frontier_entries;
    monitor_steps = t.monitor_steps }

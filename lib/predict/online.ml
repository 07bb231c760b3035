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

module Mset = Set.Make (struct
  type t = Pastltl.Monitor.state

  let compare = Pastltl.Monitor.compare_state
end)

type entry = { state : Pastltl.State.t; msets : Mset.t }

(* The cut determines the global state, so two entries meeting at one
   cut carry equal states by construction; only the monitor-state sets
   need unioning. *)
module F = Observer.Frontier.Make (struct
  type t = entry

  let merge a b = { a with msets = Mset.union a.msets b.msets }
end)

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
  spec : Pastltl.Formula.t;
  max_buffered : int option;  (* bound on out-of-order buffered messages *)
  (* Message store: (tid, index) -> message, plus contiguous prefix
     lengths and out-of-order buffer counts. *)
  store : (Types.tid * int, Message.t) Hashtbl.t;
  prefix : int array;  (* per thread: largest k with 1..k all received *)
  beyond : int array;  (* per thread: received messages with index > prefix *)
  gc_floor : int array;  (* per thread: messages 1..gc_floor already collected *)
  ended : bool array;
  (* Frontier: cuts of the current level, on the shared engine. *)
  mutable frontier : F.frontier;
  mutable level : int;
  mutable done_ : bool;  (* the frontier can never advance again *)
  mutable rev_violations : violation list;
  mutable n_violations : int;  (* length of [rev_violations] *)
  mutable retired_cuts : int;
  mutable peak_frontier_cuts : int;
  mutable peak_frontier_entries : int;
  mutable monitor_steps : int;
}

let record_level_stats t =
  let cuts = F.size t.frontier in
  t.peak_frontier_cuts <- max t.peak_frontier_cuts cuts;
  let entries = F.fold (fun acc _ e -> acc + Mset.cardinal e.msets) 0 t.frontier in
  t.peak_frontier_entries <- max t.peak_frontier_entries entries

let record_violations t =
  if t.n_violations < max_violations then
    F.iter
      (fun cut entry ->
        Mset.iter
          (fun m ->
            if t.n_violations < max_violations && not (Pastltl.Monitor.verdict t.monitor m)
            then begin
              if M.enabled () then M.incr m_violations;
              t.n_violations <- t.n_violations + 1;
              t.rev_violations <-
                { cut = Array.copy cut;
                  level = t.level;
                  state = entry.state;
                  monitor_state = m }
                :: t.rev_violations
            end)
          entry.msets)
      t.frontier

let create ?max_buffered ~nthreads ~init ~spec () =
  if nthreads <= 0 then invalid_arg "Online.create: nthreads must be positive";
  (match max_buffered with
  | Some k when k < 0 -> invalid_arg "Online.create: max_buffered must be >= 0"
  | Some k -> if M.enabled () then M.set m_max_buffered k
  | None -> ());
  let monitor = Pastltl.Monitor.compile spec in
  let init_state = Pastltl.State.of_list init in
  let m0 = Pastltl.Monitor.init monitor init_state in
  let frontier =
    F.singleton ~width:nthreads (Array.make nthreads 0)
      { state = init_state; msets = Mset.singleton m0 }
  in
  let t =
    { nthreads;
      monitor;
      spec;
      max_buffered;
      store = Hashtbl.create 64;
      prefix = Array.make nthreads 0;
      beyond = Array.make nthreads 0;
      gc_floor = Array.make nthreads 0;
      ended = Array.make nthreads false;
      frontier;
      level = 0;
      done_ = false;
      rev_violations = [];
      n_violations = 0;
      retired_cuts = 0;
      peak_frontier_cuts = 0;
      peak_frontier_entries = 0;
      monitor_steps = 1 }
  in
  record_level_stats t;
  record_violations t;
  t

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

let rec advance_one_level_body t =
  let stepped = ref 0 in
  let next =
    F.expand
      ~moves:(fun cut ->
        let out = ref [] in
        for i = t.nthreads - 1 downto 0 do
          let k = cut.(i) + 1 in
          if k <= t.prefix.(i) then begin
            let m = Hashtbl.find t.store (i, k) in
            (* Enabled iff every other component of the event's clock is
               inside the cut. *)
            let enabled = ref true and j = ref 0 in
            while !enabled && !j < t.nthreads do
              if !j <> i && Vclock.get m.Message.mvc !j > cut.(!j) then enabled := false;
              incr j
            done;
            if !enabled then out := (i, m) :: !out
          end
        done;
        !out)
      ~transition:(fun entry ~tid:_ m ->
        let state' = Observer.Computation.apply entry.state m in
        let msets =
          Mset.fold
            (fun ms acc ->
              incr stepped;
              Mset.add (Pastltl.Monitor.step t.monitor ms state') acc)
            entry.msets Mset.empty
        in
        { state = state'; msets })
      t.frontier
  in
  let stepped = !stepped in
  t.monitor_steps <- t.monitor_steps + stepped;
  if M.deep_enabled () then M.add m_monitor_steps stepped;
  if F.size next = 0 then t.done_ <- true
  else begin
    t.retired_cuts <- t.retired_cuts + F.size t.frontier;
    if M.deep_enabled () then begin
      M.add m_retired (F.size t.frontier);
      M.push m_level_cuts (F.size next)
    end;
    t.frontier <- next;
    t.level <- t.level + 1;
    record_level_stats t;
    record_violations t;
    gc_store t
  end

(* A message (i, k) can never be consumed again once every frontier cut
   already contains it; successors of the frontier only grow. Dropping
   such messages is the paper's "garbage-collected while the analysis
   process continues". *)
and gc_store t =
  (* The frontier's minimum components only grow level over level, so
     [gc_floor] records what previous sweeps already collected and each
     key is removed exactly once over the whole run. *)
  let floor = F.min_components t.frontier in
  for i = 0 to t.nthreads - 1 do
    if floor.(i) > t.gc_floor.(i) then begin
      for k = t.gc_floor.(i) + 1 to floor.(i) do
        Hashtbl.remove t.store (i, k)
      done;
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
  if seq <= t.prefix.(m.tid) || Hashtbl.mem t.store (m.tid, seq) then
    invalid_arg "Online.feed: duplicate message";
  if t.ended.(m.tid) then invalid_arg "Online.feed: thread already ended";
  (match t.max_buffered with
  | Some limit when seq > t.prefix.(m.tid) + 1 ->
      let buffered = total_beyond t in
      if buffered >= limit then raise (Backpressure { buffered; limit })
  | _ -> ());
  Hashtbl.replace t.store (m.tid, seq) m;
  if seq = t.prefix.(m.tid) + 1 then begin
    (* Extend the contiguous prefix as far as buffered messages allow. *)
    let k = ref seq in
    while Hashtbl.mem t.store (m.tid, !k + 1) do
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

let snapshot t =
  let store =
    Hashtbl.fold (fun _ m acc -> m :: acc) t.store []
    |> List.sort (fun (a : Message.t) (b : Message.t) ->
           match compare a.tid b.tid with
           | 0 -> compare (Message.seq a) (Message.seq b)
           | c -> c)
  in
  let frontier =
    F.fold
      (fun acc cut e ->
        ( Array.copy cut,
          Pastltl.State.to_list e.state,
          List.map Pastltl.Monitor.state_to_string (Mset.elements e.msets) )
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
    snap_store = store;
    snap_frontier = frontier;
    snap_violations = violations;
    snap_retired_cuts = t.retired_cuts;
    snap_peak_frontier_cuts = t.peak_frontier_cuts;
    snap_peak_frontier_entries = t.peak_frontier_entries;
    snap_monitor_steps = t.monitor_steps }

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
  let mstate bits =
    match Pastltl.Monitor.state_of_string monitor bits with
    | Some m -> m
    | None ->
        invalid_arg
          "Online.restore: monitor state does not fit the specification \
           (snapshot taken under a different spec?)"
  in
  let entries =
    List.map
      (fun (cut, bindings, msets) ->
        check_width "frontier cut" cut;
        if msets = [] then invalid_arg "Online.restore: cut with no monitor states";
        ( cut,
          { state = Pastltl.State.of_list bindings;
            msets = Mset.of_list (List.map mstate msets) } ))
      s.snap_frontier
  in
  let store = Hashtbl.create (max 64 (List.length s.snap_store)) in
  List.iter
    (fun (m : Message.t) ->
      if m.tid < 0 || m.tid >= n then invalid_arg "Online.restore: stored tid out of range";
      Hashtbl.replace store (m.tid, Message.seq m) m)
    s.snap_store;
  { nthreads = n;
    monitor;
    spec;
    max_buffered;
    store;
    prefix = Array.copy s.snap_prefix;
    beyond = Array.copy s.snap_beyond;
    gc_floor = Array.copy s.snap_gc_floor;
    ended = Array.copy s.snap_ended;
    frontier = F.of_list ~width:n entries;
    level = s.snap_level;
    done_ = s.snap_done;
    rev_violations =
      List.rev_map
        (fun (cut, level, bindings, bits) ->
          { cut; level; state = Pastltl.State.of_list bindings; monitor_state = mstate bits })
        s.snap_violations;
    n_violations = List.length s.snap_violations;
    retired_cuts = s.snap_retired_cuts;
    peak_frontier_cuts = s.snap_peak_frontier_cuts;
    peak_frontier_entries = s.snap_peak_frontier_entries;
    monitor_steps = s.snap_monitor_steps }

let violated t = t.rev_violations <> []
let violations t = List.rev t.rev_violations
let level t = t.level
let frontier_cuts t = F.size t.frontier

(* ~16 words per stored message: hashtable slot, the message record and
   its clock.  The frontier term is the dominant one under a wide
   workload, and [F.mem_words] is O(1) arithmetic, so this is cheap
   enough to evaluate after every feed. *)
let mem_words t =
  F.mem_words t.frontier + (16 * Hashtbl.length t.store) + (5 * t.nthreads)

let handoff t =
  let pending =
    Hashtbl.fold
      (fun (tid, seq) m acc -> if seq > t.prefix.(tid) then m :: acc else acc)
      t.store []
    |> List.sort (fun (a : Message.t) (b : Message.t) ->
           compare (a.tid, Message.seq a) (b.tid, Message.seq b))
  in
  (Array.copy t.prefix, Array.copy t.ended, pending)

let buffered t = Hashtbl.length t.store
let out_of_order t = total_beyond t

let missing t =
  let rec go i =
    if i >= t.nthreads then None
    else if t.beyond.(i) > 0 then Some (i, t.prefix.(i) + 1)
    else go (i + 1)
  in
  go 0

let gc_stats t =
  { retired_cuts = t.retired_cuts;
    peak_frontier_cuts = t.peak_frontier_cuts;
    peak_frontier_entries = t.peak_frontier_entries;
    monitor_steps = t.monitor_steps }

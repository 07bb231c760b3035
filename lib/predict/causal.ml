open Trace

exception Causal_buffer_overflow of { buffered : int; limit : int }

(* Delivery is event-driven.  Each thread's {e head} — its next
   undelivered message, [delivered + 1] — is in one of three states:
   absent, ready (deliverable now) or parked on the first thread [j]
   whose delivered prefix is still too short for it, listed in
   [waiters.(j)].  A head is examined only when it arrives, when the
   thread it is parked on delivers, or on [restore]; components below
   the parked one stay satisfied (delivered prefixes only grow), so a
   re-examination resumes the scan at [j].  Per message that is O(n)
   array work and no hash probe per thread. *)

let absent = -2
let ready = -1

type t = {
  nthreads : int;
  delivered : int array;
  pending : (int, Message.t) Hashtbl.t array;  (* per thread, keyed by seq *)
  ended : bool array;
  state : int array;  (* per thread: [absent], [ready] or the parking thread *)
  heads : Message.t option array;  (* the examined head, when present *)
  waiters : int array array;  (* waiters.(j).(0 .. nwaiting.(j) - 1) *)
  nwaiting : int array;
  mutable nready : int;
  max_buffered : int option;
  overflow_limit : int option;
  mutable buffered : int;
  mutable peak_buffered : int;
  mutable delivered_total : int;
}

let create ?max_buffered ?overflow_limit ~nthreads () =
  if nthreads <= 0 then invalid_arg "Causal.create: nthreads must be positive";
  (match max_buffered with
  | Some k when k < 0 -> invalid_arg "Causal.create: max_buffered must be >= 0"
  | _ -> ());
  (match overflow_limit with
  | Some k when k < 0 -> invalid_arg "Causal.create: overflow_limit must be >= 0"
  | _ -> ());
  { nthreads;
    delivered = Array.make nthreads 0;
    pending = Array.init nthreads (fun _ -> Hashtbl.create 8);
    ended = Array.make nthreads false;
    state = Array.make nthreads absent;
    heads = Array.make nthreads None;
    waiters = Array.make nthreads [||];
    nwaiting = Array.make nthreads 0;
    nready = 0;
    max_buffered;
    overflow_limit;
    buffered = 0;
    peak_buffered = 0;
    delivered_total = 0 }

let nthreads t = t.nthreads
let buffered t = t.buffered
let peak_buffered t = t.peak_buffered
let delivered_total t = t.delivered_total

(* The first thread [j >= from], other than the message's own, whose
   delivered prefix does not yet cover [m.mvc(j)]; [nthreads] when the
   message is deliverable (its own prefix is the caller's business). *)
let first_unsatisfied t (m : Message.t) ~from =
  let j = ref from in
  while
    !j < t.nthreads
    && (!j = m.Message.tid || t.delivered.(!j) >= Vclock.get m.Message.mvc !j)
  do
    incr j
  done;
  !j

let park t tid j =
  let n = t.nwaiting.(j) in
  if n = Array.length t.waiters.(j) then begin
    let a = Array.make (max 4 (2 * n)) 0 in
    Array.blit t.waiters.(j) 0 a 0 n;
    t.waiters.(j) <- a
  end;
  t.waiters.(j).(n) <- tid;
  t.nwaiting.(j) <- n + 1;
  t.state.(tid) <- j

(* Classify [m], the head of [tid], scanning from [from]. *)
let classify t tid (m : Message.t) ~from =
  let j = first_unsatisfied t m ~from in
  if j = t.nthreads then begin
    t.state.(tid) <- ready;
    t.nready <- t.nready + 1
  end
  else park t tid j

(* Look up and classify a fresh head of [tid]; the thread is neither
   ready nor parked. *)
let examine t tid =
  match Hashtbl.find_opt t.pending.(tid) (t.delivered.(tid) + 1) with
  | None ->
      t.heads.(tid) <- None;
      t.state.(tid) <- absent
  | Some m as head ->
      t.heads.(tid) <- head;
      classify t tid m ~from:0

(* [j] delivered: re-examine the heads parked on it.  A head still
   parked on [j] is written back at an index no greater than the one
   just read, so the list compacts in place. *)
let wake t j =
  let n = t.nwaiting.(j) in
  t.nwaiting.(j) <- 0;
  for i = 0 to n - 1 do
    let w = t.waiters.(j).(i) in
    match t.heads.(w) with
    | Some m -> classify t w m ~from:j
    | None -> assert false
  done

(* Deliver [tid]'s run of consecutive deliverable messages. *)
let run t tid out =
  t.nready <- t.nready - 1;
  let continue = ref true in
  while !continue do
    match t.heads.(tid) with
    | None -> assert false
    | Some m ->
        let seq = t.delivered.(tid) + 1 in
        Hashtbl.remove t.pending.(tid) seq;
        t.delivered.(tid) <- seq;
        t.buffered <- t.buffered - 1;
        t.delivered_total <- t.delivered_total + 1;
        out := m :: !out;
        examine t tid;
        if t.state.(tid) = ready then t.nready <- t.nready - 1 else continue := false
  done;
  wake t tid

(* Ready threads are visited in cyclic ascending order starting from
   thread 0 — the order of repeated full passes over the threads until
   one makes no progress, each delivering a visited thread's whole run:
   a thread readied by a lower one is reached later in the same pass, a
   thread readied by a higher one in the next. *)
let drain t =
  let out = ref [] in
  let cursor = ref 0 in
  while t.nready > 0 do
    let tid = ref !cursor in
    while !tid < t.nthreads && t.state.(!tid) <> ready do
      incr tid
    done;
    if !tid = t.nthreads then begin
      tid := 0;
      while t.state.(!tid) <> ready do
        incr tid
      done
    end;
    run t !tid out;
    cursor := !tid + 1
  done;
  List.rev !out

let feed t (m : Message.t) =
  if m.Message.tid < 0 || m.Message.tid >= t.nthreads then
    invalid_arg
      (Printf.sprintf "Causal.feed: thread id %d out of range (%d threads)"
         m.Message.tid t.nthreads);
  if Vclock.dim m.Message.mvc < t.nthreads then
    invalid_arg
      (Printf.sprintf "Causal.feed: message of thread %d has a %d-wide clock (%d threads)"
         m.Message.tid (Vclock.dim m.Message.mvc) t.nthreads);
  let seq = Message.seq m in
  if seq < 1 then
    invalid_arg
      (Printf.sprintf "Causal.feed: message of thread %d has no own tick" m.Message.tid);
  if seq <= t.delivered.(m.Message.tid) || Hashtbl.mem t.pending.(m.Message.tid) seq
  then
    invalid_arg
      (Printf.sprintf "Causal.feed: duplicate message (thread %d, index %d)"
         m.Message.tid seq);
  if t.ended.(m.Message.tid) then
    invalid_arg
      (Printf.sprintf "Causal.feed: thread %d already ended" m.Message.tid);
  Hashtbl.replace t.pending.(m.Message.tid) seq m;
  t.buffered <- t.buffered + 1;
  if t.buffered > t.peak_buffered then t.peak_buffered <- t.buffered;
  if seq = t.delivered.(m.Message.tid) + 1 then examine t m.Message.tid;
  let out = drain t in
  (* The budget cap first: its typed error routes through the overload
     policy (degrade / evict / fail), a gentler fate than the hard
     backpressure disconnect below. *)
  (match t.overflow_limit with
  | Some limit when t.buffered > limit ->
      raise (Causal_buffer_overflow { buffered = t.buffered; limit })
  | _ -> ());
  (match t.max_buffered with
  | Some limit when t.buffered > limit ->
      raise (Online.Backpressure { buffered = t.buffered; limit })
  | _ -> ());
  out

let end_of_thread t tid =
  if tid < 0 || tid >= t.nthreads then
    invalid_arg (Printf.sprintf "Causal.end_of_thread: thread id %d out of range" tid);
  t.ended.(tid) <- true

(* Straight from the index: a thread with buffered messages is blocked
   either by its own absent head or by the thread its head is parked
   on, which is that head's first unsatisfied component. *)
let missing t =
  let res = ref None in
  let tid = ref 0 in
  while Option.is_none !res && !tid < t.nthreads do
    (if Hashtbl.length t.pending.(!tid) > 0 then
       let s = t.state.(!tid) in
       if s = absent then res := Some (!tid, t.delivered.(!tid) + 1)
       else if s <> ready then res := Some (s, t.delivered.(s) + 1));
    incr tid
  done;
  !res

let finish t =
  Array.iteri (fun tid _ -> t.ended.(tid) <- true) t.ended;
  if t.buffered > 0 then
    match missing t with
    | Some (tid, seq) ->
        invalid_arg
          (Printf.sprintf
             "Causal.finish: %d buffered messages cannot be delivered (thread %d is \
              missing index %d)"
             t.buffered tid seq)
    | None ->
        invalid_arg
          (Printf.sprintf "Causal.finish: %d buffered messages cannot be delivered"
             t.buffered)

type snapshot = {
  snap_delivered : int array;
  snap_ended : bool array;
  snap_pending : Message.t list;  (** ascending [(tid, seq)] *)
  snap_peak_buffered : int;
  snap_delivered_total : int;
}

let snapshot t =
  let pending =
    Array.to_list t.pending
    |> List.concat_map (fun table ->
           Hashtbl.fold (fun _ m acc -> m :: acc) table [])
    |> List.sort (fun (a : Message.t) (b : Message.t) ->
           compare (a.Message.tid, Message.seq a) (b.Message.tid, Message.seq b))
  in
  { snap_delivered = Array.copy t.delivered;
    snap_ended = Array.copy t.ended;
    snap_pending = pending;
    snap_peak_buffered = t.peak_buffered;
    snap_delivered_total = t.delivered_total }

let restore ?max_buffered ?overflow_limit (s : snapshot) =
  let nthreads = Array.length s.snap_delivered in
  if nthreads = 0 then invalid_arg "Causal.restore: empty snapshot";
  if Array.length s.snap_ended <> nthreads then
    invalid_arg "Causal.restore: ended array does not match thread count";
  let t = create ?max_buffered ?overflow_limit ~nthreads () in
  Array.blit s.snap_delivered 0 t.delivered 0 nthreads;
  Array.blit s.snap_ended 0 t.ended 0 nthreads;
  List.iter
    (fun (m : Message.t) ->
      if m.Message.tid < 0 || m.Message.tid >= nthreads then
        invalid_arg "Causal.restore: buffered message thread id out of range";
      if Vclock.dim m.Message.mvc < nthreads then
        invalid_arg "Causal.restore: buffered message clock narrower than thread count";
      Hashtbl.replace t.pending.(m.Message.tid) (Message.seq m) m;
      t.buffered <- t.buffered + 1)
    s.snap_pending;
  (* Heads restored deliverable stay buffered until the next [feed]
     drains them, as they would have been before the snapshot. *)
  for tid = 0 to nthreads - 1 do
    examine t tid
  done;
  t.peak_buffered <- max s.snap_peak_buffered t.buffered;
  t.delivered_total <- s.snap_delivered_total;
  t

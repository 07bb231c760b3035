open Trace

(* Delivery is event-driven.  Each thread's {e head} — its next
   undelivered message, [delivered + 1] — is in one of three states:
   absent, ready (deliverable now) or parked on the first thread [j]
   whose delivered prefix is still too short for it, listed in
   [waiters.(j)].  A head is examined only when it arrives, when the
   thread it is parked on delivers, or on [restore]; components below
   the parked one stay satisfied (delivered prefixes only grow), so a
   re-examination resumes the scan at [j].  Per message that is O(n)
   array work and no hash probe per thread.

   A thread's pending messages sit in a ring indexed by [seq]: slot
   [seq land (length - 1)] holds message [seq] for the [length] indices
   just past the delivered prefix, [Message.none] where nothing arrived.
   The ring doubles as messages arrive farther ahead, up to [reach]
   slots; a message beyond that (sent far out of order, or a forged
   sequence number) waits in a map by [seq] and moves into the ring
   when it becomes the head, so a thread's buffer follows its pending
   messages, never the largest [seq]. *)

let absent = -2
let ready = -1
let reach = 1024
let far_node = 6  (* a map node: 5 fields and a header *)

type t = {
  nthreads : int;
  delivered : int array;
  rings : Message.t array array;  (* per thread, a power of two long or empty *)
  far : Message.t Imap.t array;  (* per thread, by seq: beyond the ring's reach *)
  npending : int array;  (* per thread: messages in its ring and [far] *)
  ended : bool array;
  state : int array;  (* per thread: [absent], [ready] or the parking thread *)
  waiters : int array array;  (* waiters.(j).(0 .. nwaiting.(j) - 1) *)
  nwaiting : int array;
  mutable nready : int;
  mutable buffered : int;
  mutable peak_buffered : int;
  mutable words : int;  (* the rings and [waiters] with their headers, the [far] nodes *)
}

let create ~nthreads () =
  if nthreads <= 0 then invalid_arg "Causal.create: nthreads must be positive";
  { nthreads;
    delivered = Array.make nthreads 0;
    rings = Array.make nthreads [||];
    far = Array.make nthreads Imap.empty;
    npending = Array.make nthreads 0;
    ended = Array.make nthreads false;
    state = Array.make nthreads absent;
    waiters = Array.make nthreads [||];
    nwaiting = Array.make nthreads 0;
    nready = 0;
    buffered = 0;
    peak_buffered = 0;
    words = 0 }

(* Grow [tid]'s ring to at least [d] slots ([d <= reach]), moving the
   pending messages it holds to their slots in the new one. *)
let grow t tid d =
  let old = t.rings.(tid) in
  let n = Array.length old in
  let cap = ref (max 8 (2 * n)) in
  while !cap < d do
    cap := 2 * !cap
  done;
  let ring = Array.make !cap Message.none in
  let from = t.delivered.(tid) + 1 in
  for s = from to from + n - 1 do
    let m = old.(s land (n - 1)) in
    if m != Message.none then ring.(s land (!cap - 1)) <- m
  done;
  t.rings.(tid) <- ring;
  t.words <- t.words + !cap - n + if n = 0 then 1 else 0

(* Is message [seq] of [tid] pending? *)
let holds t tid seq =
  let d = seq - t.delivered.(tid) in
  let ring = t.rings.(tid) in
  (d >= 1
  && d <= Array.length ring
  && ring.(seq land (Array.length ring - 1)) != Message.none)
  || Imap.mem seq t.far.(tid)

(* Buffer [m], which is not pending, as message [seq] of [tid]: in the
   ring when within [reach] of the delivered prefix, else in [far]. *)
let put t tid seq m =
  let d = seq - t.delivered.(tid) in
  if d >= 1 && d <= reach then begin
    if d > Array.length t.rings.(tid) then grow t tid d;
    let ring = t.rings.(tid) in
    ring.(seq land (Array.length ring - 1)) <- m
  end
  else begin
    t.far.(tid) <- Imap.add seq m t.far.(tid);
    t.words <- t.words + far_node
  end;
  t.npending.(tid) <- t.npending.(tid) + 1;
  t.buffered <- t.buffered + 1

(* The head of [tid] when present, [Message.none] otherwise; a head
   found in [far] moves into the ring. *)
let head t tid =
  let seq = t.delivered.(tid) + 1 in
  let ring = t.rings.(tid) in
  let m =
    if Array.length ring = 0 then Message.none else ring.(seq land (Array.length ring - 1))
  in
  if m != Message.none || Imap.is_empty t.far.(tid) then m
  else
    match Imap.find_opt seq t.far.(tid) with
    | None -> Message.none
    | Some m ->
        t.far.(tid) <- Imap.remove seq t.far.(tid);
        t.words <- t.words - far_node;
        if Array.length ring = 0 then grow t tid 1;
        let ring = t.rings.(tid) in
        ring.(seq land (Array.length ring - 1)) <- m;
        m

let nthreads t = t.nthreads
let buffered t = t.buffered
let peak_buffered t = t.peak_buffered

(* ~16 words per buffered message, plus the rings' and the waiting
   lists' slots and the map nodes of messages held far ahead. *)
let mem_words t = (16 * t.buffered) + t.words

(* The first thread [j >= from], other than the message's own, whose
   delivered prefix does not yet cover [m.mvc(j)]; [nthreads] when the
   message is deliverable (its own prefix is the caller's business). *)
let first_unsatisfied t (m : Message.t) ~from =
  let mvc = (m.Message.mvc :> int array) and tid = m.Message.tid in
  let j = ref from in
  while !j < t.nthreads && (!j = tid || t.delivered.(!j) >= mvc.(!j)) do
    incr j
  done;
  !j

let park t tid j =
  let n = t.nwaiting.(j) in
  if n = Array.length t.waiters.(j) then begin
    let a = Array.make (max 4 (2 * n)) 0 in
    Array.blit t.waiters.(j) 0 a 0 n;
    t.words <- t.words + Array.length a - n + if n = 0 then 1 else 0;
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
  let m = head t tid in
  if m == Message.none then t.state.(tid) <- absent else classify t tid m ~from:0

(* [j] delivered: re-examine the heads parked on it.  A head still
   parked on [j] is written back at an index no greater than the one
   just read, so the list compacts in place. *)
let wake t j =
  let n = t.nwaiting.(j) in
  t.nwaiting.(j) <- 0;
  for i = 0 to n - 1 do
    let w = t.waiters.(j).(i) in
    let ring = t.rings.(w) in
    classify t w ring.((t.delivered.(w) + 1) land (Array.length ring - 1)) ~from:j
  done

(* Deliver [tid]'s run of consecutive deliverable messages. *)
let run t tid out =
  t.nready <- t.nready - 1;
  let continue = ref true in
  let ring = t.rings.(tid) in
  while !continue do
    let seq = t.delivered.(tid) + 1 in
    let i = seq land (Array.length ring - 1) in
    out := ring.(i) :: !out;
    ring.(i) <- Message.none;
    t.delivered.(tid) <- seq;
    t.npending.(tid) <- t.npending.(tid) - 1;
    t.buffered <- t.buffered - 1;
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
  if seq <= t.delivered.(m.Message.tid) || holds t m.Message.tid seq then
    invalid_arg
      (Printf.sprintf "Causal.feed: duplicate message (thread %d, index %d)"
         m.Message.tid seq);
  if t.ended.(m.Message.tid) then
    invalid_arg
      (Printf.sprintf "Causal.feed: thread %d already ended" m.Message.tid);
  put t m.Message.tid seq m;
  if t.buffered > t.peak_buffered then t.peak_buffered <- t.buffered;
  if seq = t.delivered.(m.Message.tid) + 1 then examine t m.Message.tid;
  drain t

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
    (if t.npending.(!tid) > 0 then
       let s = t.state.(!tid) in
       if s = absent then res := Some (!tid, t.delivered.(!tid) + 1)
       else if s <> ready then res := Some (s, t.delivered.(s) + 1));
    incr tid
  done;
  !res

let next_index t tid = t.delivered.(tid) + 1

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
}

let snapshot t =
  let pending = ref [] in
  for tid = 0 to t.nthreads - 1 do
    let ring = t.rings.(tid) in
    let from = t.delivered.(tid) + 1 in
    for s = from to from + Array.length ring - 1 do
      let m = ring.(s land (Array.length ring - 1)) in
      if m != Message.none then pending := m :: !pending
    done;
    Imap.iter (fun _ m -> pending := m :: !pending) t.far.(tid)
  done;
  let pending =
    !pending
    |> List.sort (fun (a : Message.t) (b : Message.t) ->
           compare (a.Message.tid, Message.seq a) (b.Message.tid, Message.seq b))
  in
  { snap_delivered = Array.copy t.delivered;
    snap_ended = Array.copy t.ended;
    snap_pending = pending;
    snap_peak_buffered = t.peak_buffered }

let restore (s : snapshot) =
  let nthreads = Array.length s.snap_delivered in
  if nthreads = 0 then invalid_arg "Causal.restore: empty snapshot";
  if Array.length s.snap_ended <> nthreads then
    invalid_arg "Causal.restore: ended array does not match thread count";
  let t = create ~nthreads () in
  Array.blit s.snap_delivered 0 t.delivered 0 nthreads;
  Array.blit s.snap_ended 0 t.ended 0 nthreads;
  List.iter
    (fun (m : Message.t) ->
      if m.Message.tid < 0 || m.Message.tid >= nthreads then
        invalid_arg "Causal.restore: buffered message thread id out of range";
      if Vclock.dim m.Message.mvc < nthreads then
        invalid_arg "Causal.restore: buffered message clock narrower than thread count";
      put t m.Message.tid (Message.seq m) m)
    s.snap_pending;
  (* Heads restored deliverable stay buffered until the next [feed]
     drains them, as they would have been before the snapshot. *)
  for tid = 0 to nthreads - 1 do
    examine t tid
  done;
  t.peak_buffered <- max s.snap_peak_buffered t.buffered;
  t

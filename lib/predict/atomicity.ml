open Trace
module M = Telemetry.Metrics

let m_classes = M.counter "predict.atomicity.violations"
let default_max_violations = 1000

type access_kind = Read | Write

type violation = {
  tid : Types.tid;
  lock : string;
  var : Types.var;
  first : int;
  second : int;
  remote : int;
  remote_tid : Types.tid;
  pattern : access_kind * access_kind * access_kind;
}

type report = {
  transactions : int;
  violations : violation list;
}

(* a1; r; a2 with r remote: the four unserializable triples. *)
let unserializable = function
  | Read, Write, Read -> true  (* stale re-read *)
  | Write, Write, Read -> true  (* lost local write *)
  | Read, Write, Write -> true  (* update from a stale read *)
  | Write, Read, Write -> true  (* dirty intermediate read *)
  | (Read | Write), _, (Read | Write) -> false

let pattern_name = function
  | Read, Write, Read -> "stale re-read (R-W-R)"
  | Write, Write, Read -> "lost local write (W-W-R)"
  | Read, Write, Write -> "update from stale read (R-W-W)"
  | Write, Read, Write -> "dirty intermediate read (W-R-W)"
  | _ -> "serializable"

let kind_code = function Read -> "R" | Write -> "W"

let pattern_code (k1, kr, k2) =
  Printf.sprintf "%s-%s-%s" (kind_code k1) (kind_code kr) (kind_code k2)

(* {1 The streaming core}

   Shared by the offline pass and the message-driven engine.  Accesses
   must be processed in a causal linearization of the sync-only
   happens-before (the observed order is one; any causal delivery order
   is another).  A violation needs a local pair [a1 ≤ a2] of thread [t]
   under lock [l] and a remote access [r] of thread [u ≠ t] with both
   [Vclock.concurrent r.vc a1.vc] and [Vclock.concurrent r.vc a2.vc].
   Because [a1.vc ≤ a2.vc] componentwise, the four inequalities collapse
   to two scalars:

     a1.vc(t) > r.vc(t)   and   r.vc(u) > a2.vc(u)

   and each candidate remote falls in exactly one of two roles by its
   processing position relative to [a2]:

   - {e processed after [a2]}: the second inequality is automatic (a
     later-processed event is never causally below an earlier one), so
     it suffices to keep, per variable and per (thread, lock, kinds of
     a1/a2), the {e maximum} [a1.vc(t)] over closed local pairs —
     [pairmax] — and compare once when [r] arrives.
   - {e processed before [a2]}: both inequalities are checked at
     [a2]-time against the {e access log} of [(var, u, kind)]: [u]'s
     past accesses in processing order, so [r.vc(u)] strictly increases
     along it and every other component is non-decreasing.  "∃ r with
     [r.vc(u) > a2.vc(u)] and [r.vc(t) < a1.vc(t)]" is one binary
     search for the first entry past [a2.vc(u)].

   Within an open block only the {e latest} local access per
   (variable, kind) matters as [a1]: its own component is maximal, and
   [a1] appears in the conditions only through [a1.vc(t)].  Violations
   are reported once per class [(thread, lock, variable, pattern)] with
   a representative triple — total O(events × threads) plus
   O(threads × log events) per in-block access.

   Layout: an access resolves its variable once, to a [var_state]
   holding one lazily allocated [row] per owner thread.  A row carries
   the owner's two access logs (one per kind), its open-block frame and
   its closed pairs; the variable keeps every closed pair in one array
   for the remote scan.  Per access that is one string hash, one log
   append and O(threads) comparisons, with no per-observer allocation.
   A closed pair remembers which remote kinds already have their class
   recorded, so known classes are skipped before a violation record is
   built. *)

module Core = struct
  type pair_entry = {
    pe_tid : Types.tid;
    pe_lock : string;
    pe_k1 : access_kind;
    pe_k2 : access_kind;
    mutable pe_epoch : int;  (* max a1.vc(t) over closed pairs *)
    mutable pe_first : int;
    mutable pe_second : int;
    mutable pe_reported : int;  (* bit per remote kind whose class is recorded *)
  }

  (* One owner's accesses of one kind to one variable, kept as remotes
     for every other thread.  Entries [0 .. len - 1] hold each access's
     sync-only epoch, by reference (epochs are immutable), and its
     eid.

     [offs.(t)] is observer [t]'s offset: the first entry whose owner
     component exceeds [t]'s knowledge of the owner when [t] last
     looked.  That knowledge only grows, so [t] never matches an entry
     below its offset again.  What [t] can still match is the pareto
     view of [vcs.(offs.(t)) ..]: the last entry of each run of equal
     [vc(t)].  Appending drops a tail that is not in any live
     observer's view, and a full log first drops the prefix below every
     observer's offset, so the log stays short when observers keep
     looking. *)
  type log = {
    mutable vcs : Syncclock.epoch array;
    mutable eids : int array;
    mutable len : int;
    mutable offs : int array;
        (* by observer, the owner's own slot unused; allocated by the
           first seek, every offset is 0 until then *)
  }

  type row = {
    r_logs : log array;  (* by [kind_index] *)
    mutable r_block : int;  (* the block the frame below belongs to *)
    mutable f_read : (int * int) option;  (* own-component epoch, eid *)
    mutable f_write : (int * int) option;
    mutable r_pairs : pair_entry list;
  }

  type var_state = {
    v_rows : row option array;  (* by owner thread *)
    mutable v_pairs : pair_entry array;  (* [0 .. v_npairs - 1] *)
    mutable v_npairs : int;
  }

  type t = {
    c_nthreads : int;
    mutable c_transactions : int;
    c_depth : int array;
    c_current : (int * string) option array;
    c_vars : (Types.var, var_state) Hashtbl.t;
    c_classes :
      ( Types.tid * string * Types.var * (access_kind * access_kind * access_kind),
        violation )
      Hashtbl.t;
  }

  let create ~nthreads =
    { c_nthreads = nthreads;
      c_transactions = 0;
      c_depth = Array.make nthreads 0;
      c_current = Array.make nthreads None;
      c_vars = Hashtbl.create 16;
      c_classes = Hashtbl.create 8 }

  let transactions t = t.c_transactions

  let kind_index = function Read -> 0 | Write -> 1
  let kind_bit k = 1 lsl kind_index k

  (* Lock traffic: value 1 acquires, anything else releases (the VM
     lowers release to a write of 0).  Tracked before the clock update
     so the acquire itself opens the block — same convention as the
     historical offline pass.  A block's frames are those stamped with
     its transaction number, so closing it needs no reset. *)
  let sync_lock t tid lock value =
    if value = 1 then begin
      if t.c_depth.(tid) = 0 then begin
        t.c_transactions <- t.c_transactions + 1;
        t.c_current.(tid) <- Some (t.c_transactions, lock)
      end;
      t.c_depth.(tid) <- t.c_depth.(tid) + 1
    end
    else begin
      t.c_depth.(tid) <- max 0 (t.c_depth.(tid) - 1);
      if t.c_depth.(tid) = 0 then t.c_current.(tid) <- None
    end

  let var_state t var =
    match Hashtbl.find_opt t.c_vars var with
    | Some vs -> vs
    | None ->
        let vs = { v_rows = Array.make t.c_nthreads None; v_pairs = [||]; v_npairs = 0 } in
        Hashtbl.replace t.c_vars var vs;
        vs

  let new_log () = { vcs = [||]; eids = [||]; len = 0; offs = [||] }
  let offset lg u = if Array.length lg.offs = 0 then 0 else lg.offs.(u)

  let row vs tid =
    match vs.v_rows.(tid) with
    | Some r -> r
    | None ->
        let r =
          { r_logs = [| new_log (); new_log () |];
            r_block = -1;
            f_read = None;
            f_write = None;
            r_pairs = [] }
        in
        vs.v_rows.(tid) <- Some r;
        r

  (* The row's frame, emptied first when it belongs to an older block. *)
  let frame r block =
    if r.r_block <> block then begin
      r.r_block <- block;
      r.f_read <- None;
      r.f_write <- None
    end

  let no_clock = Syncclock.of_vclock 0 (Vclock.zero 1)

  (* The tail is in no live view once every observer that has not
     passed it sees the same own component in [vc]: [vc] then ends the
     tail's run for each of them.  Epochs in [owner]'s log and [vc] are
     [owner]'s, so every other component is read off [base] in place
     (here and in the scans below). *)
  let tail_dominated lg ~n ~owner (vc : Syncclock.epoch) =
    let i = lg.len - 1 in
    let tail = lg.vcs.(i).base and vc = vc.base and offs = lg.offs in
    let u = ref 0 in
    while
      !u < n
      && (!u = owner
         || (Array.length offs > 0 && offs.(!u) > i)
         || tail.(!u) = vc.(!u))
    do
      incr u
    done;
    !u = n

  let log_append lg ~n ~owner vc eid =
    while lg.len > 0 && tail_dominated lg ~n ~owner vc do
      lg.len <- lg.len - 1;
      (* An observer that had passed the dropped tail now sits at the
         end, where [vc] goes. *)
      for u = 0 to Array.length lg.offs - 1 do
        if lg.offs.(u) > lg.len then lg.offs.(u) <- lg.len
      done
    done;
    if lg.len = Array.length lg.vcs then begin
      let lo = ref lg.len in
      for u = 0 to n - 1 do
        if u <> owner && offset lg u < !lo then lo := offset lg u
      done;
      let lo = !lo in
      let live = lg.len - lo in
      if 2 * lo > lg.len then begin
        (* Reclaim the prefix every observer has passed, in place. *)
        Array.blit lg.vcs lo lg.vcs 0 live;
        Array.blit lg.eids lo lg.eids 0 live;
        Array.fill lg.vcs live lo no_clock
      end
      else begin
        let cap = max 4 (2 * live) in
        let vcs = Array.make cap no_clock and eids = Array.make cap 0 in
        Array.blit lg.vcs lo vcs 0 live;
        Array.blit lg.eids lo eids 0 live;
        lg.vcs <- vcs;
        lg.eids <- eids
      end;
      lg.len <- live;
      for u = 0 to Array.length lg.offs - 1 do
        if u <> owner then lg.offs.(u) <- lg.offs.(u) - lo
      done
    end;
    lg.vcs.(lg.len) <- vc;
    lg.eids.(lg.len) <- eid;
    lg.len <- lg.len + 1

  (* Moves [observer]'s offset to the first entry whose owner component
     exceeds [gt], the observer's current knowledge of the owner, and
     returns it ([len] when there is none). *)
  let log_seek lg ~nthreads ~observer gt =
    if Array.length lg.offs = 0 then lg.offs <- Array.make nthreads 0;
    let lo = ref lg.offs.(observer) and hi = ref lg.len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if lg.vcs.(mid).Syncclock.own > gt then hi := mid else lo := mid + 1
    done;
    lg.offs.(observer) <- !lo;
    !lo

  (* The last entry of [i]'s run of equal [vc(observer)]: the point of
     [observer]'s view that stands for [i].  [observer] is not the
     owner. *)
  let run_end lg ~observer i =
    let q = lg.vcs.(i).Syncclock.base.(observer) in
    let lo = ref (i + 1) and hi = ref lg.len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if lg.vcs.(mid).Syncclock.base.(observer) > q then hi := mid else lo := mid + 1
    done;
    !lo - 1

  (* [observer]'s view as [(p, q, eid)] points, [p] the owner component
     and [q] the observer's, both strictly increasing. *)
  let view lg ~owner ~observer =
    let pts = ref [] in
    for i = lg.len - 1 downto offset lg observer do
      let q = Syncclock.get lg.vcs.(i) observer in
      if i = lg.len - 1 || Syncclock.get lg.vcs.(i + 1) observer <> q then
        pts := (Syncclock.get lg.vcs.(i) owner, q, lg.eids.(i)) :: !pts
    done;
    !pts

  let pair_find r ~lock k1 k2 =
    List.find_opt
      (fun e -> e.pe_k1 = k1 && e.pe_k2 = k2 && String.equal e.pe_lock lock)
      r.r_pairs

  let pair_add vs r ~tid ~lock k1 k2 ~epoch ~first ~second =
    let e =
      { pe_tid = tid; pe_lock = lock; pe_k1 = k1; pe_k2 = k2; pe_epoch = epoch;
        pe_first = first; pe_second = second; pe_reported = 0 }
    in
    r.r_pairs <- e :: r.r_pairs;
    if vs.v_npairs = Array.length vs.v_pairs then begin
      let a = Array.make (max 4 (2 * vs.v_npairs)) e in
      Array.blit vs.v_pairs 0 a 0 vs.v_npairs;
      vs.v_pairs <- a
    end;
    vs.v_pairs.(vs.v_npairs) <- e;
    vs.v_npairs <- vs.v_npairs + 1;
    e

  (* The one remote kind that makes [k1; r; k2] unserializable (see
     [unserializable]): a read between two writes, a write otherwise. *)
  let remote_kind k1 k2 =
    match (k1, k2) with Write, Write -> Read | _ -> Write

  (* Record the class of [v] — closed pair [e] with a remote of kind
     [kr] — unless the cap is reached; either way [e] learns whether the
     class is now known. *)
  let record t ~max_violations e kr v fresh =
    let key = (v.tid, v.lock, v.var, v.pattern) in
    if Hashtbl.mem t.c_classes key then e.pe_reported <- e.pe_reported lor kind_bit kr
    else if Hashtbl.length t.c_classes < max_violations then begin
      Hashtbl.replace t.c_classes key v;
      e.pe_reported <- e.pe_reported lor kind_bit kr;
      fresh := v :: !fresh
    end

  (* One data access, in causal processing order.  Returns the
     violations whose class this access closed (usually none). *)
  let access t ~max_violations ~tid ~var ~kind ~vc ~eid =
    let fresh = ref [] in
    let vs = var_state t var in
    let base = vc.Syncclock.base in
    (* As a remote, against closed pairs of other threads. *)
    for i = 0 to vs.v_npairs - 1 do
      let e = vs.v_pairs.(i) in
      if
        e.pe_tid <> tid
        && e.pe_reported land kind_bit kind = 0
        && unserializable (e.pe_k1, kind, e.pe_k2)
        && e.pe_epoch > base.(e.pe_tid)
      then
        record t ~max_violations e kind
          { tid = e.pe_tid; lock = e.pe_lock; var; first = e.pe_first;
            second = e.pe_second; remote = eid; remote_tid = tid;
            pattern = (e.pe_k1, kind, e.pe_k2) }
          fresh
    done;
    let own = row vs tid in
    (* As the closing end of a local pair. *)
    (match t.c_current.(tid) with
    | None -> ()
    | Some (block, lock) ->
        frame own block;
        let close k1 = function
          | None -> ()
          | Some (e1, eid1) ->
              (* Future remotes via the pair's max epoch. *)
              let entry =
                match pair_find own ~lock k1 kind with
                | Some entry ->
                    if e1 > entry.pe_epoch then begin
                      entry.pe_epoch <- e1;
                      entry.pe_first <- eid1;
                      entry.pe_second <- eid
                    end;
                    entry
                | None ->
                    pair_add vs own ~tid ~lock k1 kind ~epoch:e1 ~first:eid1 ~second:eid
              in
              (* Past remotes via the other owners' logs.  Every log is
                 sought, known classes included: the seek also moves
                 this observer's offset past its dead prefix. *)
              let kr = remote_kind k1 kind in
              for u = 0 to t.c_nthreads - 1 do
                match vs.v_rows.(u) with
                | Some r when u <> tid ->
                    let lg = r.r_logs.(kind_index kr) in
                    let i =
                      log_seek lg ~nthreads:t.c_nthreads ~observer:tid base.(u)
                    in
                    if
                      i < lg.len
                      && lg.vcs.(i).Syncclock.base.(tid) < e1
                      && entry.pe_reported land kind_bit kr = 0
                    then
                      record t ~max_violations entry kr
                        { tid; lock; var; first = eid1; second = eid;
                          remote = lg.eids.(run_end lg ~observer:tid i);
                          remote_tid = u; pattern = (k1, kr, kind) }
                        fresh
                | Some _ | None -> ()
              done
        in
        close Read own.f_read;
        close Write own.f_write);
    (* As a future remote for every other thread. *)
    log_append own.r_logs.(kind_index kind) ~n:t.c_nthreads ~owner:tid vc eid;
    (* Finally, become the latest in-block access of this kind. *)
    (match t.c_current.(tid) with
    | None -> ()
    | Some _ -> (
        let e = Some (vc.Syncclock.own, eid) in
        match kind with Read -> own.f_read <- e | Write -> own.f_write <- e));
    List.rev !fresh

  (* The snapshot registry: every live frame, closed pair and non-empty
     observer view, keyed as the snapshot lines are, in any order. *)
  let fold_rows t f acc =
    Hashtbl.fold
      (fun var vs acc ->
        let acc = ref acc in
        Array.iteri
          (fun tid r -> match r with Some r -> acc := f var tid r !acc | None -> ())
          vs.v_rows;
        !acc)
      t.c_vars acc

  let frames t =
    fold_rows t
      (fun var tid r acc ->
        match t.c_current.(tid) with
        | Some (block, _) when r.r_block = block ->
            let slot k = function
              | None -> []
              | Some (epoch, eid) -> [ (tid, var, k, epoch, eid) ]
            in
            slot Read r.f_read @ slot Write r.f_write @ acc
        | Some _ | None -> acc)
      []

  let pairs t =
    fold_rows t
      (fun var _ r acc ->
        List.fold_left
          (fun acc e ->
            ( var, e.pe_tid, e.pe_lock, e.pe_k1, e.pe_k2, e.pe_epoch, e.pe_first,
              e.pe_second )
            :: acc)
          acc r.r_pairs)
      []

  let views t =
    fold_rows t
      (fun var owner r acc ->
        let acc = ref acc in
        Array.iteri
          (fun ki lg ->
            let kind = if ki = 0 then Read else Write in
            for observer = 0 to t.c_nthreads - 1 do
              if observer <> owner && offset lg observer < lg.len then
                acc :=
                  ((var, owner, observer, kind), view lg ~owner ~observer) :: !acc
            done)
          r.r_logs;
        !acc)
      []

  let log_epochs t =
    fold_rows t
      (fun _ owner r acc ->
        Array.fold_left
          (fun acc lg ->
            let acc = ref acc in
            for i = 0 to lg.len - 1 do
              acc := (owner, lg.vcs.(i)) :: !acc
            done;
            !acc)
          acc r.r_logs)
      []

  (* Restore entry points: the same state [access] builds. *)
  let restore_frame t tid var kind e =
    match t.c_current.(tid) with
    | None -> invalid_arg "atomicity engine: frame of a thread outside any block"
    | Some (block, _) -> (
        let r = row (var_state t var) tid in
        frame r block;
        match kind with Read -> r.f_read <- e | Write -> r.f_write <- e)

  let restore_pair t var tid ~lock k1 k2 ~epoch ~first ~second =
    let vs = var_state t var in
    let r = row vs tid in
    match pair_find r ~lock k1 k2 with
    | Some e ->
        e.pe_epoch <- epoch;
        e.pe_first <- first;
        e.pe_second <- second
    | None -> ignore (pair_add vs r ~tid ~lock k1 k2 ~epoch ~first ~second)

  (* Rebuilds one log from its observers' views, [(observer, points)]
     with points ascending.  The entries are the union of the points,
     ordered by [p]; an entry missing from [t]'s view was dominated
     there, so it takes [vc(t)] from [t]'s next point.  [t]'s offset is
     its first point; an observer without a view has passed the whole
     log. *)
  let restore_log t var ~owner kind views =
    let lg = (row (var_state t var) owner).r_logs.(kind_index kind) in
    let entries =
      List.concat_map (fun (_, pts) -> List.map (fun (p, _, eid) -> (p, eid)) pts) views
      |> List.sort_uniq (fun (a, _) (b, _) -> compare a b)
      |> Array.of_list
    in
    let len = Array.length entries in
    let index = Hashtbl.create len in
    Array.iteri (fun i (p, _) -> Hashtbl.replace index p i) entries;
    let clocks = Array.map (fun _ -> Array.make t.c_nthreads 0) entries in
    Array.iteri (fun i (p, _) -> clocks.(i).(owner) <- p) entries;
    lg.offs <- Array.make t.c_nthreads len;
    lg.offs.(owner) <- 0;
    List.iter
      (fun (observer, pts) ->
        if observer = owner then
          invalid_arg "atomicity engine: view of an owner's own accesses";
        match pts with
        | [] -> ()
        | (p0, _, _) :: _ ->
            lg.offs.(observer) <- Hashtbl.find index p0;
            (* Each point covers the entries from just after the
               previous point up to itself. *)
            let from = ref lg.offs.(observer) in
            List.iter
              (fun (p, q, _) ->
                let upto = Hashtbl.find index p in
                for i = !from to upto do
                  clocks.(i).(observer) <- q
                done;
                from := upto + 1)
              pts)
      views;
    lg.vcs <- Array.map (fun c -> Syncclock.of_vclock owner (Vclock.of_array c)) clocks;
    lg.eids <- Array.map snd entries;
    lg.len <- len

  let violations t =
    Hashtbl.fold (fun _ v acc -> v :: acc) t.c_classes []
    |> List.sort (fun a b -> compare (a.first, a.remote) (b.first, b.remote))

  let report t = { transactions = t.c_transactions; violations = violations t }
  let violated t = Hashtbl.length t.c_classes > 0

  let sink ?(max_violations = default_max_violations) ?(metered = false) t =
    { Linear.lock = sync_lock t;
      access =
        (fun tid var ~is_write ~eid vc ->
          let fresh =
            access t ~max_violations ~tid ~var ~kind:(if is_write then Write else Read) ~vc
              ~eid
          in
          if metered && M.enabled () then List.iter (fun _ -> M.incr m_classes) fresh) }

  (* {2 Snapshot section} *)

  let kind_of_code ~what = function
    | "R" -> Read
    | "W" -> Write
    | s -> invalid_arg (Printf.sprintf "%s: bad access kind %S" what s)

  let write lines t =
    let open Engine.Snapshot in
    let code = kind_code and sorted l = List.sort compare l in
    push lines
      ("depth " ^ String.concat " " (Array.to_list (Array.map string_of_int t.c_depth)));
    push_counted lines "current"
      (List.filter_map Fun.id
         (List.mapi
            (fun tid c -> Option.map (fun (block, lock) -> (tid, block, lock)) c)
            (Array.to_list t.c_current)))
      (fun (tid, block, lock) -> [ Printf.sprintf "cur %d %d %s" tid block lock ]);
    push_counted lines "frames" (sorted (frames t)) (fun (tid, var, k, epoch, eid) ->
        [ Printf.sprintf "fs %d %s %s %d %d" tid var (code k) epoch eid ]);
    push_counted lines "pairs" (sorted (pairs t))
      (fun (var, tid, lock, k1, k2, epoch, first, second) ->
        [ Printf.sprintf "pm %s %d %s %s %s %d %d %d" var tid lock (code k1) (code k2) epoch
            first second ]);
    push_counted lines "frontiers"
      (List.sort (fun (a, _) (b, _) -> compare a b) (views t))
      (fun ((var, rtid, ltid, k), pts) ->
        Printf.sprintf "fr %s %d %d %s %d" var rtid ltid (code k) (List.length pts)
        :: List.map (fun (p, q, eid) -> Printf.sprintf "pt %d %d %d" p q eid) pts);
    push_counted lines "classes"
      (sorted (Hashtbl.fold (fun _ v acc -> v :: acc) t.c_classes []))
      (fun v ->
        let k1, kr, k2 = v.pattern in
        [ Printf.sprintf "cl %d %s %s %s %s %s %d %d %d %d" v.tid v.lock v.var (code k1)
            (code kr) (code k2) v.first v.second v.remote v.remote_tid ])

  let read ~what ~nthreads ~transactions r =
    let open Engine.Snapshot in
    let t = create ~nthreads in
    t.c_transactions <- transactions;
    let depth = keyed ~what ~key:"depth" r |> List.map (int ~what) in
    if List.length depth <> nthreads then
      invalid_arg (what ^ ": depth array does not match thread count");
    List.iteri (fun tid d -> t.c_depth.(tid) <- d) depth;
    let tid_of s =
      let tid = int ~what s in
      if tid < 0 || tid >= nthreads then invalid_arg (what ^ ": thread id out of range");
      tid
    in
    let kind = kind_of_code ~what in
    let counted key item = ignore (counted ~what ~key r item) in
    counted "current" (fun () ->
        match keyed ~what ~key:"cur" r with
        | [ tid; block; lock ] -> t.c_current.(tid_of tid) <- Some (int ~what block, lock)
        | _ -> invalid_arg (what ^ ": malformed cur line"));
    counted "frames" (fun () ->
        match keyed ~what ~key:"fs" r with
        | [ tid; var; k; epoch; eid ] ->
            restore_frame t (tid_of tid) var (kind k) (Some (int ~what epoch, int ~what eid))
        | _ -> invalid_arg (what ^ ": malformed fs line"));
    counted "pairs" (fun () ->
        match keyed ~what ~key:"pm" r with
        | [ var; tid; lock; k1; k2; epoch; first; second ] ->
            restore_pair t var (tid_of tid) ~lock (kind k1) (kind k2) ~epoch:(int ~what epoch)
              ~first:(int ~what first) ~second:(int ~what second)
        | _ -> invalid_arg (what ^ ": malformed pm line"));
    (* Views arrive per observer; a log is rebuilt from all of its own. *)
    let logs = Hashtbl.create 16 in
    counted "frontiers" (fun () ->
        match keyed ~what ~key:"fr" r with
        | [ var; rtid; ltid; k; len ] ->
            let rtid = tid_of rtid and ltid = tid_of ltid in
            let pts =
              List.init (int ~what len) (fun _ ->
                  match keyed ~what ~key:"pt" r with
                  | [ p; q; eid ] -> (int ~what p, int ~what q, int ~what eid)
                  | _ -> invalid_arg (what ^ ": malformed pt line"))
            in
            let key = (var, rtid, kind k) in
            let views = Option.value ~default:[] (Hashtbl.find_opt logs key) in
            Hashtbl.replace logs key ((ltid, pts) :: views)
        | _ -> invalid_arg (what ^ ": malformed fr line"));
    Hashtbl.iter (fun (var, owner, kind) views -> restore_log t var ~owner kind views) logs;
    counted "classes" (fun () ->
        match keyed ~what ~key:"cl" r with
        | [ tid; lock; var; k1; kr; k2; first; second; remote; rtid ] ->
            let v =
              { tid = tid_of tid; lock; var;
                first = int ~what first;
                second = int ~what second;
                remote = int ~what remote;
                remote_tid = int ~what rtid;
                pattern = (kind k1, kind kr, kind k2) }
            in
            Hashtbl.replace t.c_classes (v.tid, v.lock, v.var, v.pattern) v
        | _ -> invalid_arg (what ^ ": malformed cl line"));
    t
end

let analyze ?(max_violations = default_max_violations) exec =
  let core = Core.create ~nthreads:(Exec.nthreads exec) in
  Linear.replay exec (Core.sink ~max_violations core);
  Core.report core

let serializable r = r.violations = []

let pp_violation ppf v =
  Format.fprintf ppf
    "atomicity violation in %a's sync(%s) block on %s: %s — e%d .. e%d with remote e%d \
     by %a"
    Types.pp_tid v.tid v.lock v.var (pattern_name v.pattern) v.first v.second v.remote
    Types.pp_tid v.remote_tid

let pp_report ppf r =
  match r.violations with
  | [] ->
      Format.fprintf ppf "all %d sync blocks serializable under every schedule"
        r.transactions
  | vs ->
      Format.fprintf ppf "@[<v>%d atomicity violations over %d sync blocks@,%a@]"
        (List.length vs) r.transactions
        (Format.pp_print_list pp_violation)
        vs

(* {1 Canonical verdict} *)

let verdict ~classes ~transactions =
  match classes with
  | [] ->
      Printf.sprintf "predict.atomicity: all %d sync blocks serializable"
        transactions
  | cs ->
      Printf.sprintf "predict.atomicity: VIOLATIONS PREDICTED {%s} over %d sync blocks"
        (String.concat ", "
           (List.map
              (fun (t, l, x, p) ->
                Printf.sprintf "T%d:sync(%s):%s:%s" t l x (pattern_code p))
              cs))
        transactions

let classes_of_report r =
  List.sort_uniq compare
    (List.map (fun v -> (v.tid, v.lock, v.var, v.pattern)) r.violations)

let verdict_of_report r =
  verdict ~classes:(classes_of_report r) ~transactions:r.transactions

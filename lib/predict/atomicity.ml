open Trace
module M = Telemetry.Metrics

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
     [a2]-time against a per-(var, remote thread, local thread, kind)
     {e pareto frontier} of past remotes — points [(r.vc(u), r.vc(t))]
     with both coordinates strictly increasing, so "∃ r with
     [r.vc(u) > a2.vc(u)] and [r.vc(t) < a1.vc(t)]" is one binary
     search.  Inserts are amortized O(1) because [r.vc(u)] increases
     monotonically per remote thread.

   Within an open block only the {e latest} local access per
   (variable, kind) matters as [a1]: its own component is maximal, and
   [a1] appears in the conditions only through [a1.vc(t)].  Violations
   are reported once per class [(thread, lock, variable, pattern)] with
   a representative triple — total O(events × threads) plus one
   O(log events) search per in-block access.

   Layout: an access resolves its variable once, to a [var_state]
   holding one lazily allocated [row] per owner thread.  A row carries
   the owner's frontiers indexed by [(observer, kind)], its open-block
   frame and its closed pairs; the variable keeps every closed pair in
   one array for the remote scan.  Per access that is one string hash
   and O(threads) array work.  A closed pair remembers which remote
   kinds already have their class recorded, so known classes are
   skipped before a violation record is built. *)

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

  (* Live points occupy points [off .. len - 1] of the flat array [pts]
     ([p; q; eid] per point), both coordinates strictly increasing.
     [off] advances as queries consume the prefix: a frontier of
     [(var, owner, observer, kind)] is queried only by [observer], whose
     knowledge of [owner] — the [gt] bound — is monotone in causal
     processing order, so points with [p <= gt] can never match again. *)
  type frontier = { mutable pts : int array; mutable len : int; mutable off : int }

  type row = {
    fronts : frontier array;  (* by [observer * 2 + kind_index kind] *)
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

  let row t vs tid =
    match vs.v_rows.(tid) with
    | Some r -> r
    | None ->
        let r =
          { fronts =
              Array.init (2 * t.c_nthreads) (fun _ -> { pts = [||]; len = 0; off = 0 });
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

  let frontier r ~observer kind = r.fronts.((2 * observer) + kind_index kind)

  let frontier_add f ~p ~q ~eid =
    (* New points arrive with strictly increasing [p]; drop dominated
       tail points so both coordinates stay strictly increasing. *)
    while f.len > f.off && f.pts.((3 * (f.len - 1)) + 1) >= q do
      f.len <- f.len - 1
    done;
    if 3 * f.len = Array.length f.pts then begin
      let live = f.len - f.off in
      if 3 * f.off > Array.length f.pts / 2 then
        (* Reclaim the consumed prefix in place. *)
        Array.blit f.pts (3 * f.off) f.pts 0 (3 * live)
      else begin
        let a = Array.make (3 * max 8 (2 * live)) 0 in
        Array.blit f.pts (3 * f.off) a 0 (3 * live);
        f.pts <- a
      end;
      f.len <- live;
      f.off <- 0
    end;
    let i = 3 * f.len in
    f.pts.(i) <- p;
    f.pts.(i + 1) <- q;
    f.pts.(i + 2) <- eid;
    f.len <- f.len + 1

  (* The index of the point with minimal [q] among those with [p > gt],
     or [-1].  Points with [p <= gt] are dead for every later query from
     this frontier's one consumer (monotone [gt]) and are dropped. *)
  let frontier_query f ~gt =
    let lo = ref f.off and hi = ref f.len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if f.pts.(3 * mid) > gt then hi := mid else lo := mid + 1
    done;
    f.off <- !lo;
    if !lo < f.len then !lo else -1

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
    (* As a remote, against closed pairs of other threads. *)
    for i = 0 to vs.v_npairs - 1 do
      let e = vs.v_pairs.(i) in
      if
        e.pe_tid <> tid
        && e.pe_reported land kind_bit kind = 0
        && unserializable (e.pe_k1, kind, e.pe_k2)
        && e.pe_epoch > Vclock.get vc e.pe_tid
      then
        record t ~max_violations e kind
          { tid = e.pe_tid; lock = e.pe_lock; var; first = e.pe_first;
            second = e.pe_second; remote = eid; remote_tid = tid;
            pattern = (e.pe_k1, kind, e.pe_k2) }
          fresh
    done;
    let own = row t vs tid in
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
              (* Past remotes via the frontiers.  Every frontier is
                 queried, known classes included: the query also
                 consumes the frontier's dead prefix. *)
              let kr = remote_kind k1 kind in
              for u = 0 to t.c_nthreads - 1 do
                match vs.v_rows.(u) with
                | Some r when u <> tid ->
                    let f = frontier r ~observer:tid kr in
                    let i = frontier_query f ~gt:(Vclock.get vc u) in
                    if
                      i >= 0
                      && f.pts.((3 * i) + 1) < e1
                      && entry.pe_reported land kind_bit kr = 0
                    then
                      record t ~max_violations entry kr
                        { tid; lock; var; first = eid1; second = eid;
                          remote = f.pts.((3 * i) + 2); remote_tid = u;
                          pattern = (k1, kr, kind) }
                        fresh
                | Some _ | None -> ()
              done
        in
        close Read own.f_read;
        close Write own.f_write);
    (* As a future remote for every other thread. *)
    let p = Vclock.get vc tid in
    for u = 0 to t.c_nthreads - 1 do
      if u <> tid then
        frontier_add (frontier own ~observer:u kind) ~p ~q:(Vclock.get vc u) ~eid
    done;
    (* Finally, become the latest in-block access of this kind. *)
    (match t.c_current.(tid) with
    | None -> ()
    | Some _ -> (
        let e = Some (p, eid) in
        match kind with Read -> own.f_read <- e | Write -> own.f_write <- e));
    List.rev !fresh

  (* The snapshot registry: every live frame, closed pair and non-empty
     frontier, keyed as the snapshot lines are, in any order. *)
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

  let frontiers t =
    fold_rows t
      (fun var owner r acc ->
        let acc = ref acc in
        Array.iteri
          (fun i f ->
            if f.len > f.off then
              let kind = if i land 1 = 0 then Read else Write in
              acc := ((var, owner, i / 2, kind), f) :: !acc)
          r.fronts;
        !acc)
      []

  (* Restore entry points: the same state [access] builds. *)
  let restore_frame t tid var kind e =
    match t.c_current.(tid) with
    | None -> invalid_arg "atomicity engine: frame of a thread outside any block"
    | Some (block, _) -> (
        let r = row t (var_state t var) tid in
        frame r block;
        match kind with Read -> r.f_read <- e | Write -> r.f_write <- e)

  let restore_pair t var tid ~lock k1 k2 ~epoch ~first ~second =
    let vs = var_state t var in
    let r = row t vs tid in
    match pair_find r ~lock k1 k2 with
    | Some e ->
        e.pe_epoch <- epoch;
        e.pe_first <- first;
        e.pe_second <- second
    | None -> ignore (pair_add vs r ~tid ~lock k1 k2 ~epoch ~first ~second)

  let restore_frontier t var ~owner ~observer kind =
    frontier (row t (var_state t var) owner) ~observer kind

  let classes t =
    Hashtbl.fold (fun key _ acc -> key :: acc) t.c_classes []
    |> List.sort compare

  let violations t =
    Hashtbl.fold (fun _ v acc -> v :: acc) t.c_classes []
    |> List.sort (fun a b -> compare (a.first, a.remote) (b.first, b.remote))
end

let analyze ?(max_violations = 1000) exec =
  let nthreads = Exec.nthreads exec in
  let clocks = Syncclock.create ~nthreads in
  let core = Core.create ~nthreads in
  Array.iter
    (fun (e : Event.t) ->
      (match e.kind with
      | Event.Write (x, v) -> (
          match Types.as_lock x with
          | Some l -> Core.sync_lock core e.tid l v
          | None -> ())
      | Event.Read _ | Event.Internal -> ());
      match Syncclock.observe clocks e with
      | None -> ()
      | Some vc ->
          ignore
            (Core.access core ~max_violations ~tid:e.tid
               ~var:(Option.get (Event.variable e))
               ~kind:(if Event.is_write e then Write else Read)
               ~vc ~eid:e.eid))
    (Exec.events exec);
  { transactions = Core.transactions core; violations = Core.violations core }

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

(* {1 The streaming engine} *)

let m_events = M.counter "predict.atomicity.events"
let m_classes = M.counter "predict.atomicity.violations"

type engine = {
  e_clocks : Syncclock.t;
  e_causal : Causal.t;
  e_core : Core.t;
  mutable e_events : int;
  mutable e_ooo : int;
}

let engine_max_violations = 1000

let deliver st (m : Message.t) =
  let var, is_read =
    match Types.as_read m.Message.var with
    | Some x -> (x, true)
    | None -> (m.Message.var, false)
  in
  (if not is_read then
     match Types.as_lock var with
     | Some l -> Core.sync_lock st.e_core m.Message.tid l m.Message.value
     | None -> ());
  match Syncclock.observe_access st.e_clocks m.Message.tid ~var ~is_read with
  | None -> ()
  | Some vc ->
      let fresh =
        Core.access st.e_core ~max_violations:engine_max_violations
          ~tid:m.Message.tid ~var
          ~kind:(if is_read then Read else Write)
          ~vc ~eid:m.Message.eid
      in
      if M.enabled () then List.iter (fun _ -> M.incr m_classes) fresh

let engine_feed st m =
  st.e_events <- st.e_events + 1;
  if M.enabled () then M.incr m_events;
  let delivered = Causal.feed st.e_causal m in
  if not (List.memq m delivered) then st.e_ooo <- st.e_ooo + 1;
  List.iter (deliver st) delivered

let snapshot_version = "atomicity 1"

let kind_of_code ~what = function
  | "R" -> Read
  | "W" -> Write
  | s -> invalid_arg (Printf.sprintf "%s: bad access kind %S" what s)

let engine_snapshot st =
  let lines = ref [] in
  let open Engine.Snapshot in
  let core = st.e_core in
  push lines snapshot_version;
  add_syncclock lines (Syncclock.snapshot st.e_clocks);
  add_causal lines (Causal.snapshot st.e_causal);
  push lines
    (Printf.sprintf "counts %d %d %d" core.Core.c_transactions st.e_events
       st.e_ooo);
  push lines
    ("depth "
    ^ String.concat " " (Array.to_list (Array.map string_of_int core.Core.c_depth)));
  let currents =
    Array.to_list core.Core.c_current
    |> List.mapi (fun tid c -> (tid, c))
    |> List.filter_map (fun (tid, c) ->
           Option.map (fun (block, lock) -> (tid, block, lock)) c)
  in
  push lines (Printf.sprintf "current %d" (List.length currents));
  List.iter
    (fun (tid, block, lock) ->
      push lines (Printf.sprintf "cur %d %d %s" tid block lock))
    currents;
  let frames = Core.frames core |> List.sort compare in
  push lines (Printf.sprintf "frames %d" (List.length frames));
  List.iter
    (fun (tid, var, k, epoch, eid) ->
      push lines
        (Printf.sprintf "fs %d %s %s %d %d" tid var (kind_code k) epoch eid))
    frames;
  let pairs = Core.pairs core |> List.sort compare in
  push lines (Printf.sprintf "pairs %d" (List.length pairs));
  List.iter
    (fun (var, tid, lock, k1, k2, epoch, first, second) ->
      push lines
        (Printf.sprintf "pm %s %d %s %s %s %d %d %d" var tid lock (kind_code k1)
           (kind_code k2) epoch first second))
    pairs;
  let frontiers =
    Core.frontiers core |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  push lines (Printf.sprintf "frontiers %d" (List.length frontiers));
  List.iter
    (fun ((var, rtid, ltid, k), (f : Core.frontier)) ->
      push lines
        (Printf.sprintf "fr %s %d %d %s %d" var rtid ltid (kind_code k)
           (f.Core.len - f.Core.off));
      for i = f.Core.off to f.Core.len - 1 do
        let pts = f.Core.pts in
        push lines
          (Printf.sprintf "pt %d %d %d" pts.(3 * i) pts.((3 * i) + 1) pts.((3 * i) + 2))
      done)
    frontiers;
  let classes =
    Hashtbl.fold (fun _ v acc -> v :: acc) core.Core.c_classes []
    |> List.sort compare
  in
  push lines (Printf.sprintf "classes %d" (List.length classes));
  List.iter
    (fun v ->
      let k1, kr, k2 = v.pattern in
      push lines
        (Printf.sprintf "cl %d %s %s %s %s %s %d %d %d %d" v.tid v.lock v.var
           (kind_code k1) (kind_code kr) (kind_code k2) v.first v.second v.remote
           v.remote_tid))
    classes;
  List.rev !lines

let instance_of st =
  { Engine.name = "atomicity";
    feed = engine_feed st;
    end_of_thread = Causal.end_of_thread st.e_causal;
    finish = (fun () -> Causal.finish st.e_causal);
    violated = (fun () -> Hashtbl.length st.e_core.Core.c_classes > 0);
    verdict =
      (fun () ->
        verdict
          ~classes:(Core.classes st.e_core)
          ~transactions:st.e_core.Core.c_transactions);
    events = (fun () -> st.e_events);
    buffered = (fun () -> Causal.buffered st.e_causal);
    out_of_order = (fun () -> st.e_ooo);
    missing = (fun () -> Causal.missing st.e_causal);
    snapshot = (fun () -> engine_snapshot st) }

let engine_create (ctx : Engine.ctx) =
  instance_of
    { e_clocks = Syncclock.create ~nthreads:ctx.Engine.nthreads;
      e_causal =
        (* Same degrade-handoff seeding as the race engine: a [start]
           cut resumes delivery mid-stream with empty summaries. *)
        (match ctx.Engine.start with
        | Some cut ->
            Causal.restore ?max_buffered:ctx.Engine.max_buffered
              ?overflow_limit:ctx.Engine.overflow_limit cut
        | None ->
            Causal.create ?max_buffered:ctx.Engine.max_buffered
              ?overflow_limit:ctx.Engine.overflow_limit
              ~nthreads:ctx.Engine.nthreads ());
      e_core = Core.create ~nthreads:ctx.Engine.nthreads;
      e_events = 0;
      e_ooo = 0 }

let engine_restore (ctx : Engine.ctx) lines =
  let what = "atomicity engine" in
  let open Engine.Snapshot in
  let r = reader lines in
  let version = line ~what r in
  if version <> snapshot_version then
    invalid_arg
      (Printf.sprintf "%s: unsupported snapshot version %S" what version);
  let clocks = read_syncclock ~what r in
  let causal =
    read_causal ~what ?max_buffered:ctx.Engine.max_buffered
      ?overflow_limit:ctx.Engine.overflow_limit r
  in
  let nthreads = Causal.nthreads causal in
  let core = Core.create ~nthreads in
  let transactions, events, ooo =
    match keyed ~what ~key:"counts" r with
    | [ t; e; o ] -> (int ~what t, int ~what e, int ~what o)
    | _ -> invalid_arg (what ^ ": malformed counts line")
  in
  core.Core.c_transactions <- transactions;
  let depth = keyed ~what ~key:"depth" r |> List.map (int ~what) in
  if List.length depth <> nthreads then
    invalid_arg (what ^ ": depth array does not match thread count");
  List.iteri (fun tid d -> core.Core.c_depth.(tid) <- d) depth;
  let check_tid tid =
    if tid < 0 || tid >= nthreads then
      invalid_arg (what ^ ": thread id out of range")
  in
  let counted key of_fields =
    match keyed ~what ~key r with
    | [ n ] ->
        for _ = 1 to int ~what n do
          of_fields ()
        done
    | _ -> invalid_arg (Printf.sprintf "%s: malformed %s line" what key)
  in
  counted "current" (fun () ->
      match keyed ~what ~key:"cur" r with
      | [ tid; block; lock ] ->
          let tid = int ~what tid in
          check_tid tid;
          core.Core.c_current.(tid) <- Some (int ~what block, lock)
      | _ -> invalid_arg (what ^ ": malformed cur line"));
  counted "frames" (fun () ->
      match keyed ~what ~key:"fs" r with
      | [ tid; var; k; epoch; eid ] ->
          let tid = int ~what tid in
          check_tid tid;
          Core.restore_frame core tid var (kind_of_code ~what k)
            (Some (int ~what epoch, int ~what eid))
      | _ -> invalid_arg (what ^ ": malformed fs line"));
  counted "pairs" (fun () ->
      match keyed ~what ~key:"pm" r with
      | [ var; tid; lock; k1; k2; epoch; first; second ] ->
          let tid = int ~what tid in
          check_tid tid;
          Core.restore_pair core var tid ~lock (kind_of_code ~what k1)
            (kind_of_code ~what k2) ~epoch:(int ~what epoch) ~first:(int ~what first)
            ~second:(int ~what second)
      | _ -> invalid_arg (what ^ ": malformed pm line"));
  counted "frontiers" (fun () ->
      match keyed ~what ~key:"fr" r with
      | [ var; rtid; ltid; k; len ] ->
          let rtid = int ~what rtid and ltid = int ~what ltid in
          check_tid rtid;
          check_tid ltid;
          let f =
            Core.restore_frontier core var ~owner:rtid ~observer:ltid
              (kind_of_code ~what k)
          in
          for _ = 1 to int ~what len do
            match keyed ~what ~key:"pt" r with
            | [ p; q; eid ] ->
                Core.frontier_add f ~p:(int ~what p) ~q:(int ~what q)
                  ~eid:(int ~what eid)
            | _ -> invalid_arg (what ^ ": malformed pt line")
          done
      | _ -> invalid_arg (what ^ ": malformed fr line"));
  counted "classes" (fun () ->
      match keyed ~what ~key:"cl" r with
      | [ tid; lock; var; k1; kr; k2; first; second; remote; rtid ] ->
          let tid = int ~what tid in
          check_tid tid;
          let v =
            { tid; lock; var;
              first = int ~what first;
              second = int ~what second;
              remote = int ~what remote;
              remote_tid = int ~what rtid;
              pattern =
                ( kind_of_code ~what k1,
                  kind_of_code ~what kr,
                  kind_of_code ~what k2 ) }
          in
          Hashtbl.replace core.Core.c_classes (v.tid, v.lock, v.var, v.pattern) v
      | _ -> invalid_arg (what ^ ": malformed cl line"));
  if not (eof r) then invalid_arg (what ^ ": trailing lines in snapshot");
  instance_of
    { e_clocks = clocks; e_causal = causal; e_core = core; e_events = events;
      e_ooo = ooo }

let factory = { Engine.create = engine_create; restore = engine_restore }

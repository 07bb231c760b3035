(* The atomicity core against the implementation it replaced.

   [Model] is the per-observer pareto-frontier core, kept verbatim
   (with its offline pass and snapshot writer) as the reference for the
   access-log core.  On random lock/data executions of 2 to 64 threads
   the two must give identical reports, every eid included, identical
   [linear 2] snapshot lines every few messages under reordered
   delivery, and identical futures after the model's snapshot is
   restored into the new engine.  The golden cases pin results the
   frontier core wrote: a mid-stream 16-thread snapshot committed under
   [data/], and digests of the 64-thread race, atomicity and lattice
   reports. *)

open Trace
module A = Predict.Atomicity
module PE = Predict.Engine
module Causal = Predict.Causal
module Engines = Predict.Engines

let md5 s = Digest.to_hex (Digest.string s)

(* {1 Reference model} *)

module Model = struct
  open A

  let unserializable = function
    | Read, Write, Read | Write, Write, Read | Read, Write, Write | Write, Read, Write ->
        true
    | (Read | Write), _, (Read | Write) -> false

  let kind_code = function Read -> "R" | Write -> "W"

  (* The sync-only clocks the engine's in-place epochs replaced: an
     immutable clock per thread and sync variable, a fresh one per
     event. *)
  module Syncclock = struct
    type t = {
      vi : Vclock.t array;
      va : (Types.var, Vclock.t) Hashtbl.t;
      vw : (Types.var, Vclock.t) Hashtbl.t;
    }

    let create ~nthreads =
      { vi = Array.init nthreads (fun _ -> Vclock.zero nthreads);
        va = Hashtbl.create 8;
        vw = Hashtbl.create 8 }

    let var_clock t table x =
      match Hashtbl.find_opt table x with
      | Some v -> v
      | None -> Vclock.zero (Array.length t.vi)

    let tick t tid = t.vi.(tid) <- Vclock.inc t.vi.(tid) tid

    let sync_write t tid x =
      let v = Vclock.max (var_clock t t.va x) t.vi.(tid) in
      t.vi.(tid) <- v;
      Hashtbl.replace t.va x v;
      Hashtbl.replace t.vw x v

    let sync_read t tid x =
      t.vi.(tid) <- Vclock.max t.vi.(tid) (var_clock t t.vw x);
      Hashtbl.replace t.va x (Vclock.max (var_clock t t.va x) t.vi.(tid))

    let observe_access t tid ~var ~is_read =
      tick t tid;
      if Types.is_sync_var var then begin
        if is_read then sync_read t tid var else sync_write t tid var;
        None
      end
      else Some t.vi.(tid)

    let observe t (e : Event.t) =
      match e.kind with
      | Event.Internal -> None
      | Event.Read (x, _) -> observe_access t e.tid ~var:x ~is_read:true
      | Event.Write (x, _) -> observe_access t e.tid ~var:x ~is_read:false

    (* The [vi] / [va] / [vw] snapshot lines. *)
    let write lines t =
      let push l = lines := l :: !lines in
      push ("vi " ^ String.concat " " (Array.to_list (Array.map Vclock.to_string t.vi)));
      let table key table =
        let bindings =
          Hashtbl.fold (fun x v acc -> (x, v) :: acc) table []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        in
        push (Printf.sprintf "%s %d" key (List.length bindings));
        List.iter
          (fun (x, v) -> push (Printf.sprintf "kv %s %s" x (Vclock.to_string v)))
          bindings
      in
      table "va" t.va;
      table "vw" t.vw
  end

  (* The delivery buffer's snapshot lines. *)
  let write_causal lines (s : Causal.snapshot) =
    let push l = lines := l :: !lines in
    let ints a = String.concat " " (Array.to_list (Array.map string_of_int a)) in
    push ("delivered " ^ ints s.Causal.snap_delivered);
    push ("ended " ^ ints (Array.map (fun b -> if b then 1 else 0) s.Causal.snap_ended));
    push (Printf.sprintf "progress %d" s.Causal.snap_peak_buffered);
    push (Printf.sprintf "pending %d" (List.length s.Causal.snap_pending));
    List.iter
      (fun (m : Message.t) ->
        push
          (Printf.sprintf "msg %d %d %s %d %s" m.Message.eid m.Message.tid m.Message.var
             m.Message.value (Vclock.to_string m.Message.mvc)))
      s.Causal.snap_pending

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


  type engine = {
    e_clocks : Syncclock.t;
    e_causal : Causal.t;
    e_core : Core.t;
  }

  let create ~nthreads =
    { e_clocks = Syncclock.create ~nthreads;
      e_causal = Causal.create ~nthreads ();
      e_core = Core.create ~nthreads }

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
        ignore
          (Core.access st.e_core ~max_violations:1000 ~tid:m.Message.tid ~var
             ~kind:(if is_read then Read else Write)
             ~vc ~eid:m.Message.eid)

  let feed st m = List.iter (deliver st) (Causal.feed st.e_causal m)

  let finish st = Causal.finish st.e_causal

  let verdict st =
    verdict ~classes:(Core.classes st.e_core) ~transactions:st.e_core.Core.c_transactions

  let snapshot st =
    let lines = ref [] in
    let open PE.Snapshot in
    let core = st.e_core in
    push lines "linear 2";
    Syncclock.write lines st.e_clocks;
    write_causal lines (Causal.snapshot st.e_causal);
    push lines (Printf.sprintf "atomicity-core %d" core.Core.c_transactions);
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
end

(* {1 Random lock/data executions} *)

(* A thread is a list of items over a pool of variables and locks:
   writes, reads into a local, and [sync] blocks nested up to two deep.
   Nested blocks only take a lock of equal or higher index, so no
   schedule deadlocks. *)
type item = Assign of int * int | Load of int | Sync of int * item list

let gen_program =
  QCheck.Gen.(
    let* nthreads = frequency [ (6, int_range 2 8); (3, int_range 9 24); (1, int_range 25 64) ] in
    let* nvars = int_range 1 4 in
    let* nlocks = int_range 1 4 in
    let var = int_bound (nvars - 1) in
    let access =
      oneof [ map2 (fun x k -> Assign (x, k)) var (int_bound 2); map (fun x -> Load x) var ]
    in
    let rec items depth lock =
      list_size (int_range 1 3)
        (if depth >= 2 then access
         else
           frequency
             [ (3, access);
               ( 2,
                 let* l = int_range lock (nlocks - 1) in
                 let* body = items (depth + 1) l in
                 return (Sync (l, body)) ) ])
    in
    let* threads = list_repeat nthreads (items 0 0) in
    let* sched_seed = int_bound 10_000 in
    let* reorder_seed = int_bound 10_000 in
    return (nvars, threads, sched_seed, reorder_seed))

let render (nvars, threads, _, _) =
  let rec item = function
    | Assign (x, k) -> Printf.sprintf "v%d = v%d + %d;" x x k
    | Load x -> Printf.sprintf "r = v%d;" x
    | Sync (l, body) ->
        Printf.sprintf "sync (m%d) { %s }" l (String.concat " " (List.map item body))
  in
  Printf.sprintf "shared %s;\n%s"
    (String.concat ", " (List.init nvars (Printf.sprintf "v%d = 0")))
    (String.concat "\n"
       (List.mapi
          (fun t body ->
            Printf.sprintf "thread t%d { local r = 0; %s }" t
              (String.concat " " (List.map item body)))
          threads))

let arb_program =
  QCheck.make gen_program ~print:(fun ((_, _, s, r) as p) ->
      Printf.sprintf "sched=%d reorder=%d\n%s" s r (render p))

let exec_of ((_, _, sched_seed, _) as p) =
  let program = Tml.Parser.parse_program (render p) in
  let r = Tml.Vm.run_program ~sched:(Tml.Sched.random ~seed:sched_seed) program in
  Option.get r.Tml.Vm.exec

let create exec =
  Engines.create ~kinds:[ PE.Atomicity ] ~nthreads:(Exec.nthreads exec) ~init:(Exec.init exec)
    ~spec:None ()

let restore exec ~events lines =
  Engines.restore ~kinds:[ PE.Atomicity ] ~nthreads:(Exec.nthreads exec) ~spec:None
    ~online_snapshot:None ~blocks:[ ("linear", lines) ] ~events ()

let linear_lines e = List.assoc "linear" (Engines.snapshots e)
let verdict e = List.assoc "atomicity" (Engines.verdict_lines e)

let report_string r = Format.asprintf "%a" A.pp_report r

let qcheck_analyze =
  QCheck.Test.make ~name:"analyze == frontier model, eids included" ~count:150 arb_program
    (fun p ->
      let exec = exec_of p in
      List.for_all
        (fun cap ->
          let model = Model.analyze ~max_violations:cap exec in
          let ours = A.analyze ~max_violations:cap exec in
          ours = model
          || QCheck.Test.fail_reportf "max_violations=%d\nmodel:\n%s\nours:\n%s" cap
               (report_string model) (report_string ours))
        [ 1; 3; 1000 ])

(* Feeds [messages] from index [from] to both sides, comparing the
   snapshot lines after every [k]-th message and at the end. *)
let run_both ~k ~from messages model ours =
  List.iteri
    (fun i m ->
      if i >= from then begin
        Model.feed model m;
        Engines.feed ours m;
        if (i + 1) mod k = 0 && Model.snapshot model <> linear_lines ours then
          QCheck.Test.fail_reportf "snapshot lines differ after message %d" (i + 1)
      end)
    messages;
  Model.finish model;
  Engines.finish ours;
  if Model.verdict model <> verdict ours then
    QCheck.Test.fail_reportf "verdicts differ:\nmodel: %s\nours:  %s" (Model.verdict model)
      (verdict ours);
  Model.snapshot model = linear_lines ours
  || QCheck.Test.fail_reportf "final snapshot lines differ"

let reordered exec ((_, _, _, reorder_seed) : _ * _ * _ * int) =
  Observer.Channel.bounded_reorder ~seed:reorder_seed ~window:32
    (PE.messages_of_exec exec)

let qcheck_snapshots =
  QCheck.Test.make ~name:"snapshot lines == frontier model at every k-th message"
    ~count:100 arb_program (fun p ->
      let exec = exec_of p in
      let messages = reordered exec p in
      let k = max 1 (List.length messages / 12) in
      run_both ~k ~from:0 messages (Model.create ~nthreads:(Exec.nthreads exec)) (create exec))

let qcheck_restore_model =
  QCheck.Test.make ~name:"model snapshot restored into the engine: same future"
    ~count:80 arb_program (fun p ->
      let exec = exec_of p in
      let messages = reordered exec p in
      let n = List.length messages in
      List.for_all
        (fun cut ->
          let model = Model.create ~nthreads:(Exec.nthreads exec) in
          List.iteri (fun i m -> if i < cut then Model.feed model m) messages;
          let lines = Model.snapshot model in
          let ours = restore exec ~events:cut lines in
          (linear_lines ours = lines
          || QCheck.Test.fail_reportf "cut=%d: restore -> snapshot changed the lines" cut)
          && run_both ~k:(max 1 (n / 4)) ~from:cut messages model ours)
        [ n / 3; (2 * n) / 3 ])

(* {1 Golden results of the frontier core} *)

(* A 16-thread lock-counter run (8 iterations, schedule seed 5)
   delivered through a 64-message reorder window (seed 11), cut after
   half of its 768 messages.  [data/linear_16t_mid.snap] holds the
   frontier core's state at that cut in the [linear 2] layout;
   [golden_final_md5] pins the block at the end. *)
let committed_md5 = "f833e17338940af5b4c3f703676a4459"
let golden_final_md5 = "f970ba957def243b6387eccd281810c2"

let golden_verdict =
  "predict.atomicity: VIOLATIONS PREDICTED {"
  ^ String.concat ", "
      (List.init 16 (fun t -> Printf.sprintf "T%d:sync(m%d):c:R-W-W" t (t mod 4)))
  ^ "} over 128 sync blocks"

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_golden_checkpoint () =
  let program = Tml.Parser.parse_program (Lock_counter.source ~threads:16 ~iters:8 ~nops:0) in
  let exec =
    Option.get (Tml.Vm.run_program ~sched:(Tml.Sched.random ~seed:5) program).Tml.Vm.exec
  in
  let messages =
    Observer.Channel.bounded_reorder ~seed:11 ~window:64 (PE.messages_of_exec exec)
  in
  let n = List.length messages in
  Alcotest.(check int) "message count" 768 n;
  let cut = n / 2 in
  let feed e from =
    List.iteri (fun i m -> if i >= from then Engines.feed e m) messages;
    Engines.finish e
  in
  let digest lines = md5 (String.concat "\n" lines) in
  let committed =
    (* Beside the executable under [dune runtest], under [test/] from
       the repository root under [dune exec]. *)
    List.map
      (fun dir -> Filename.concat dir "data/linear_16t_mid.snap")
      [ Filename.dirname Sys.executable_name; "test" ]
    |> List.find Sys.file_exists |> read_lines
  in
  Alcotest.(check string) "committed lines digest" committed_md5 (digest committed);
  let ours = create exec in
  List.iteri (fun i m -> if i < cut then Engines.feed ours m) messages;
  Alcotest.(check (list string)) "mid state == committed" committed (linear_lines ours);
  feed ours cut;
  Alcotest.(check string) "final verdict" golden_verdict (verdict ours);
  let final = linear_lines ours in
  Alcotest.(check string) "final snapshot digest" golden_final_md5 (digest final);
  let resumed = restore exec ~events:cut committed in
  Alcotest.(check (list string)) "resumed snapshot == committed, at the cut" committed
    (linear_lines resumed);
  feed resumed cut;
  Alcotest.(check string) "resumed verdict" golden_verdict (verdict resumed);
  Alcotest.(check (list string)) "resumed final snapshot == uninterrupted" final
    (linear_lines resumed);
  Alcotest.(check string) "resumed final snapshot digest" golden_final_md5
    (digest (linear_lines resumed))

(* [Pipeline.check] on the benchmark's 64-thread shape (2 iterations,
   20 internal steps each) under the counter spec, schedule seeds 1-5:
   digests of the race report (12-13k pairs, truncated at 10,000), the
   atomicity report and the lattice statistics. *)
let golden_wide =
  [ (1, "8ae32cb86054c86934a00281c9cfe7d9", "36014443c9ffdd649ff3e9a00b19eb24");
    (2, "7b1f25f7fc1fb247bb5cd3fb09f84770", "42c19bcdf26498f07318ff6718079c7a");
    (3, "f890a251b6e107f362c893ff1b580be2", "bf410ef27edfbfead7f6c471a4841a5a");
    (4, "11001f2f046c52c1bd35c9edca14c288", "efd0fe040ecaf8c5e0aa3ffa0ec08ea9");
    (5, "ed9540b18618e1a41c624b88b3a46477", "6c9542969ce1c12562375fe85c4f72ce") ]

let golden_lattice = "levels=129 cuts_visited=129 monitor_steps=129 violations=0"

let test_golden_wide () =
  let program = Tml.Parser.parse_program (Lock_counter.source ~threads:64 ~iters:2 ~nops:20) in
  let spec = Pastltl.Fparser.parse "(c > 0) ==> once (c == 1)" in
  List.iter
    (fun (seed, race_md5, atom_md5) ->
      let config = Jmpax.Config.with_seed seed (Jmpax.Config.default ()) in
      let out = Jmpax.Pipeline.check ~config ~spec program in
      let label what = Printf.sprintf "seed %d: %s" seed what in
      Alcotest.(check string) (label "race report") race_md5
        (md5
           (Format.asprintf "%a" Predict.Race.pp_report
              (Option.get out.Jmpax.Pipeline.races)));
      Alcotest.(check string) (label "atomicity report") atom_md5
        (md5 (report_string (Option.get out.Jmpax.Pipeline.atomicity)));
      let report = out.Jmpax.Pipeline.predictive in
      let s = report.Predict.Analyzer.stats in
      Alcotest.(check string) (label "lattice") golden_lattice
        (Printf.sprintf "levels=%d cuts_visited=%d monitor_steps=%d violations=%d"
           s.Predict.Analyzer.levels s.Predict.Analyzer.cuts_visited
           s.Predict.Analyzer.monitor_steps
           (List.length report.Predict.Analyzer.violations)))
    golden_wide

(* {1 Log bound}

   A 16-thread lock-counter stream, 200 iterations a thread, through a
   64-message reorder window (19,200 messages): each thread's R-W-W class on [c] is
   recorded within its first blocks, so from then on every closing scan
   skips its searches.  The observers' knowledge is still recorded at
   each of those scans, and the offsets derived from it must keep
   moving: the write logs of [c], which every closing scan reads, stay
   within one entry per thread all stream long.  (The read logs of [c]
   and the cells' logs are read by no scan of this program, so no
   offset moves there and they follow the stream.) *)
let test_log_bound () =
  let threads = 16 in
  let program =
    Tml.Parser.parse_program (Lock_counter.source ~threads ~iters:200 ~nops:0)
  in
  let exec =
    Option.get (Tml.Vm.run_program ~sched:(Tml.Sched.random ~seed:5) program).Tml.Vm.exec
  in
  (* Reordered a block at a time: [bounded_reorder] is quadratic. *)
  let rec reorder i = function
    | [] -> []
    | ms ->
        let block = List.filteri (fun j _ -> j < 2048) ms in
        Observer.Channel.bounded_reorder ~seed:(11 + i) ~window:64 block
        @ reorder (i + 1) (List.filteri (fun j _ -> j >= 2048) ms)
  in
  let messages = reorder 0 (PE.messages_of_exec exec) in
  let core = A.Core.create ~nthreads:threads in
  let front = Predict.Linear.create ~nthreads:threads () in
  let sink = A.Core.sink core in
  let longest = ref 0 and recorded_by = ref (-1) in
  List.iteri
    (fun i m ->
      Predict.Linear.feed front sink m;
      if i mod 16 = 0 then begin
        if !recorded_by < 0 && List.length (A.Core.report core).A.violations = threads then
          recorded_by := i;
        List.iter
          (fun (var, _, kind, len) ->
            if var = "c" && kind = A.Write then longest := max !longest len)
          (A.Core.log_lengths core)
      end)
    messages;
  Predict.Linear.finish front;
  Alcotest.(check int) "message count" 19_200 (List.length messages);
  if !recorded_by < 0 || !recorded_by > 2_000 then
    Alcotest.failf "every class recorded only after message %d" !recorded_by;
  if !longest > threads then
    Alcotest.failf "a write log of c reached %d entries (bound %d)" !longest threads

(* {1 Restored knowledge below an observer's first point}

   Three threads on [x]: [t] (T1) releases [a], which [o] (T0) then
   takes before writing [x] (so [o]'s writes know [t]: [vc(t) > 0]);
   [u] (T2) releases [b], which [o] takes before writing [x] again.  At
   the cut [o]'s write log holds both writes: [t], which never learned
   anything of [o], sees one run (one point, the second write), while
   [u] sees two points, the first below [t]'s.  After the cut [t]
   closes an R-R pair on [x] still knowing nothing of [o], so its scan
   starts at the first write again.  A restored engine must carry on
   exactly as an uninterrupted one and as the frontier model. *)
let test_restore_below_first_point () =
  let program =
    Tml.Parser.parse_program
      "shared x = 0;\n\
       thread o { sync (a) { x = 1; } sync (b) { x = 2; } }\n\
       thread t { local r = 0; sync (a) { r = 0; } sync (c) { r = x; r = x; } }\n\
       thread u { sync (b) { } }"
  in
  (* Each thread runs its picks in turn; past the plan, the lowest
     runnable thread. *)
  let plan = ref [ (1, 2); (0, 3); (2, 2); (0, 3); (1, 4) ] in
  let pick runnable count =
    let runnable = Array.sub runnable 0 count in
    match !plan with
    | (tid, k) :: rest when Array.mem tid runnable ->
        plan := if k > 1 then (tid, k - 1) :: rest else rest;
        tid
    | _ -> runnable.(0)
  in
  let sched = Tml.Sched.make_raw ~name:"plan" ~pick_fn:pick ~choose_fn:(fun _ -> 0) in
  let exec = Option.get (Tml.Vm.run_program ~sched program).Tml.Vm.exec in
  let messages = PE.messages_of_exec exec in
  let shape = List.map (fun (m : Message.t) -> (m.Message.tid, m.Message.var)) messages in
  let sync tid l body = ((tid, Types.lock_var l) :: body) @ [ (tid, Types.lock_var l) ] in
  let read = Types.read_var "x" in
  Alcotest.(check (list (pair int string))) "scripted order"
    (sync 1 "a" [] @ sync 0 "a" [ (0, "x") ] @ sync 2 "b" [] @ sync 0 "b" [ (0, "x") ]
    @ sync 1 "c" [ (1, read); (1, read) ])
    shape;
  let cut = 10 in
  let model = Model.create ~nthreads:3 in
  let ours = create exec in
  List.iteri
    (fun i m ->
      if i < cut then begin
        Model.feed model m;
        Engines.feed ours m
      end)
    messages;
  let mid = linear_lines ours in
  Alcotest.(check (list string)) "engine == model at the cut" (Model.snapshot model) mid;
  List.iter
    (fun l -> if not (List.mem l mid) then Alcotest.failf "no %S line at the cut" l)
    [ "fr x 0 1 W 1"; "fr x 0 2 W 2" ];
  let rest e =
    List.iteri (fun i m -> if i >= cut then Engines.feed e m) messages;
    Engines.finish e
  in
  rest ours;
  List.iteri (fun i m -> if i >= cut then Model.feed model m) messages;
  Model.finish model;
  let e = restore exec ~events:cut mid in
  Alcotest.(check (list string)) "restored at the cut" mid (linear_lines e);
  rest e;
  Alcotest.(check string) "verdict" (verdict ours) (verdict e);
  Alcotest.(check (list string)) "final == uninterrupted" (linear_lines ours) (linear_lines e);
  Alcotest.(check (list string)) "final == model" (Model.snapshot model) (linear_lines e);
  Alcotest.(check string) "model verdict" (Model.verdict model) (verdict ours)

let () =
  Alcotest.run "atomicity-core"
    [ ( "reference model",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_analyze; qcheck_snapshots; qcheck_restore_model ] );
      ( "golden",
        [ Alcotest.test_case "linear 2 checkpoint, 16 threads" `Quick
            test_golden_checkpoint;
          Alcotest.test_case "race, atomicity and lattice, 64 threads" `Quick
            test_golden_wide ] );
      ( "restore",
        [ Alcotest.test_case "knowledge below an observer's first point" `Quick
            test_restore_below_first_point ] );
      ( "log bound",
        [ Alcotest.test_case "derived offsets keep c's write logs short" `Quick
            test_log_bound ] ) ]

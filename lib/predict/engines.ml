(* Register the streaming engines.  Living in the same module that every
   front end uses to construct bundles guarantees the registrations are
   linked in — side-effect-only modules can be dropped by the linker. *)
let () =
  Engine.register "race" Race.factory;
  Engine.register "atomicity" Atomicity.factory

type degraded = {
  d_from : string;
  d_reason : string;
  d_at_event : int;
  d_violated : bool;
}

type t = {
  kinds : Engine.kind list;
  mutable online : Online.t option;
  mutable others : Engine.instance list;  (* non-lattice engines, in [kinds] order *)
  mutable events : int;
  mutable degraded : degraded option;
  ctx : Engine.ctx;  (* for spawning replacement engines on degrade *)
}

let kinds t = t.kinds

let require_factory kind =
  let name = Engine.kind_to_string kind in
  match Engine.find name with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Engines: engine %S not registered" name)

let validate_kinds kinds ~spec =
  if kinds = [] then invalid_arg "Engines.create: no engine selected";
  if List.mem Engine.Lattice kinds && spec = None then
    invalid_arg "Engines.create: the lattice engine needs a specification"

let ctx_of ?max_buffered ?overflow_limit ~nthreads ~init ~spec () =
  { Engine.nthreads; init; spec; max_buffered; overflow_limit; start = None }

let create ?max_buffered ?overflow_limit ~kinds ~nthreads ~init ~spec () =
  validate_kinds kinds ~spec;
  let ctx = ctx_of ?max_buffered ?overflow_limit ~nthreads ~init ~spec () in
  let online =
    if List.mem Engine.Lattice kinds then
      Some (Online.create ?max_buffered ~nthreads ~init ~spec:(Option.get spec) ())
    else None
  in
  let others =
    List.filter_map
      (fun kind ->
        match kind with
        | Engine.Lattice -> None
        | kind -> Some ((require_factory kind).Engine.create ctx))
      kinds
  in
  { kinds; online; others; events = 0; degraded = None; ctx }

let feed t m =
  t.events <- t.events + 1;
  Option.iter (fun o -> Online.feed o m) t.online;
  List.iter (fun (e : Engine.instance) -> e.Engine.feed m) t.others

let end_of_thread t tid =
  Option.iter (fun o -> Online.end_of_thread o tid) t.online;
  List.iter (fun (e : Engine.instance) -> e.Engine.end_of_thread tid) t.others

let finish t =
  Option.iter Online.finish t.online;
  List.iter (fun (e : Engine.instance) -> e.Engine.finish ()) t.others

let violated t =
  (match t.online with Some o -> Online.violated o | None -> false)
  || (match t.degraded with Some d -> d.d_violated | None -> false)
  || List.exists (fun (e : Engine.instance) -> e.Engine.violated ()) t.others

let online t = t.online
let degraded t = t.degraded

let events t = t.events

let ticks t =
  match t.online with Some o -> Online.level o | None -> t.events

let buffered t =
  List.fold_left
    (fun acc (e : Engine.instance) -> max acc (e.Engine.buffered ()))
    (match t.online with Some o -> Online.buffered o | None -> 0)
    t.others

let out_of_order t =
  List.fold_left
    (fun acc (e : Engine.instance) -> max acc (e.Engine.out_of_order ()))
    (match t.online with Some o -> Online.out_of_order o | None -> 0)
    t.others

let missing t =
  let first acc m = match acc with Some _ -> acc | None -> m in
  List.fold_left
    (fun acc (e : Engine.instance) -> first acc (e.Engine.missing ()))
    (match t.online with Some o -> Online.missing o | None -> None)
    t.others

let verdict_lines t =
  List.map
    (fun (e : Engine.instance) -> (e.Engine.name, e.Engine.verdict ()))
    t.others

let snapshots t =
  List.map
    (fun (e : Engine.instance) -> (e.Engine.name, e.Engine.snapshot ()))
    t.others

(* {1 Resource accounting}

   All O(1) over maintained counters — the budget layer evaluates these
   after every feed. *)

let frontier_cuts t =
  match t.online with Some o -> Online.frontier_cuts o | None -> 0

let causal_buffered t =
  List.fold_left
    (fun acc (e : Engine.instance) -> max acc (e.Engine.buffered ()))
    0 t.others

let mem_words t =
  (* ~16 words per message parked in an engine's delivery buffer. *)
  List.fold_left
    (fun acc (e : Engine.instance) -> acc + (16 * e.Engine.buffered ()))
    (match t.online with Some o -> Online.mem_words o | None -> 0)
    t.others

(* {1 Degradation}

   The engine set a degraded bundle runs: every non-lattice engine it
   already had, plus the linear-time race and atomicity engines.  Both
   [degrade] and the degraded [restore] path derive the set from this
   one function so kill/resume lands on the same bundle. *)

let degraded_kinds kinds =
  let others = List.filter (fun k -> k <> Engine.Lattice) kinds in
  others
  @ List.filter
      (fun k -> not (List.mem k others))
      [ Engine.Race; Engine.Atomicity ]

let degrade t ~reason =
  match t.online with
  | None -> invalid_arg "Engines.degrade: no lattice engine to degrade"
  | Some o ->
      (* The lattice engine pumps to quiescence inside every feed, so
         between feeds its delivered/pending split is a clean causal
         boundary; seed the replacement engines' delivery buffers from
         that cut.  Their summaries start empty — they soundly cover
         only the stream suffix, which the degraded marker records. *)
      let prefix, ended, pending = Online.handoff o in
      let cut =
        { Causal.snap_delivered = prefix;
          snap_ended = ended;
          snap_pending = pending;
          snap_peak_buffered = List.length pending;
          snap_delivered_total = Array.fold_left ( + ) 0 prefix }
      in
      let ctx = { t.ctx with Engine.start = Some cut } in
      let have kind =
        let name = Engine.kind_to_string kind in
        List.exists (fun (e : Engine.instance) -> e.Engine.name = name) t.others
      in
      let fresh =
        List.filter_map
          (fun kind ->
            if have kind then None
            else Some ((require_factory kind).Engine.create ctx))
          (degraded_kinds t.kinds)
      in
      t.others <- t.others @ fresh;
      t.degraded <-
        Some
          { d_from = "lattice";
            d_reason = reason;
            d_at_event = t.events;
            d_violated = Online.violated o };
      t.online <- None

let restore ?max_buffered ?overflow_limit ?degraded ~kinds ~nthreads ~init ~spec
    ~online_snapshot ~blocks ~events () =
  validate_kinds kinds ~spec;
  let ctx = ctx_of ?max_buffered ?overflow_limit ~nthreads ~init ~spec () in
  let online =
    match (List.mem Engine.Lattice kinds, degraded, online_snapshot) with
    | _, Some _, Some _ ->
        invalid_arg
          "Engines.restore: checkpoint is degraded yet carries lattice engine \
           state"
    | _, Some _, None -> None
    | true, None, Some snap ->
        Some (Online.restore ?max_buffered ~spec:(Option.get spec) snap)
    | true, None, None ->
        invalid_arg "Engines.restore: checkpoint has no lattice engine state"
    | false, None, Some _ ->
        invalid_arg
          "Engines.restore: checkpoint has lattice engine state but the lattice \
           engine is not selected"
    | false, None, None -> None
  in
  let other_kinds =
    match degraded with
    | Some _ -> degraded_kinds kinds
    | None -> List.filter (fun k -> k <> Engine.Lattice) kinds
  in
  let consumed = ref [] in
  let others =
    List.map
      (fun kind ->
        let name = Engine.kind_to_string kind in
        let lines =
          match List.assoc_opt name blocks with
          | Some lines -> lines
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Engines.restore: checkpoint has no state for engine %S" name)
        in
        consumed := name :: !consumed;
        (require_factory kind).Engine.restore ctx lines)
      other_kinds
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem name !consumed) then
        invalid_arg
          (Printf.sprintf
             "Engines.restore: checkpoint has state for unselected engine %S" name))
    blocks;
  { kinds; online; others; events; degraded; ctx }

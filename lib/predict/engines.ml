module M = Telemetry.Metrics

type degraded = {
  d_from : string;
  d_reason : string;
  d_at_event : int;
  d_violated : bool;
}

(* The race and atomicity cores behind one front end: one causal buffer,
   one sync-clock state, each access handed to whichever cores run. *)
type linear = {
  front : Linear.t;
  order : Engine.kind list;  (* the cores' kinds, in verdict order *)
  race : Race.Core.t option;
  atomicity : Atomicity.Core.t option;
  sink : Linear.sink;
}

type t = {
  kinds : Engine.kind list;
  mutable online : Online.t option;
  mutable linear : linear option;
  mutable events : int;
  mutable degraded : degraded option;
  nthreads : int;
}

let kinds t = t.kinds

let m_events =
  [ (Engine.Race, M.counter "predict.race.events");
    (Engine.Atomicity, M.counter "predict.atomicity.events") ]

let validate_kinds kinds ~spec =
  if kinds = [] then invalid_arg "Engines.create: no engine selected";
  if List.mem Engine.Lattice kinds && spec = None then
    invalid_arg "Engines.create: the lattice engine needs a specification"

let linear_kinds kinds = List.filter (fun k -> k <> Engine.Lattice) kinds

let sink_of ~metered race atomicity =
  Linear.fan_out
    (Option.to_list (Option.map (Race.Core.sink ~metered:(metered Engine.Race)) race)
    @ Option.to_list
        (Option.map (Atomicity.Core.sink ~metered:(metered Engine.Atomicity)) atomicity))

(* The cores [order] selects, on [front]: the given ones, fresh ones for
   the rest. *)
let attach ?race ?atomicity front order =
  let nthreads = Linear.nthreads front in
  let core kind given fresh =
    if not (List.mem kind order) then None
    else match given with Some c -> Some c | None -> Some (fresh ())
  in
  let race = core Engine.Race race (fun () -> Race.Core.create ~max_races:0 ~nthreads ()) in
  let atomicity = core Engine.Atomicity atomicity (fun () -> Atomicity.Core.create ~nthreads) in
  { front; order; race; atomicity; sink = sink_of ~metered:(fun _ -> true) race atomicity }

let create ~kinds ~nthreads ~init ~spec () =
  validate_kinds kinds ~spec;
  let online =
    if List.mem Engine.Lattice kinds then
      Some (Online.create ~nthreads ~init ~spec:(Option.get spec) ())
    else None
  in
  let linear =
    match linear_kinds kinds with
    | [] -> None
    | order -> Some (attach (Linear.create ~nthreads ()) order)
  in
  { kinds; online; linear; events = 0; degraded = None; nthreads }

(* [match]es, not [Option.iter]: a closure over [m] would be allocated
   per message.  A message counts once every engine has accepted it: a
   refused duplicate is not an event. *)
let feed t m =
  (match t.online with Some o -> Online.feed o m | None -> ());
  (match t.linear with
  | None -> ()
  | Some l ->
      Linear.feed l.front l.sink m;
      if M.enabled () then List.iter (fun k -> M.incr (List.assq k m_events)) l.order);
  t.events <- t.events + 1

let end_of_thread t tid =
  (match t.online with Some o -> Online.end_of_thread o tid | None -> ());
  match t.linear with Some l -> Linear.end_of_thread l.front tid | None -> ()

let finish t =
  Option.iter Online.finish t.online;
  Option.iter (fun l -> Linear.finish l.front) t.linear

let violated t =
  (match t.online with Some o -> Online.violated o | None -> false)
  || (match t.degraded with Some d -> d.d_violated | None -> false)
  ||
  match t.linear with
  | Some l ->
      Option.fold ~none:false ~some:Race.Core.violated l.race
      || Option.fold ~none:false ~some:Atomicity.Core.violated l.atomicity
  | None -> false

let online t = t.online
let degraded t = t.degraded
let events t = t.events

let ticks t =
  match t.online with Some o -> Online.level o | None -> t.events

let lattice_or t f ~default = match t.online with Some o -> f o | None -> default
let linear_or t f ~default = match t.linear with Some l -> f l.front | None -> default

let out_of_order t =
  Int.max (lattice_or t Online.out_of_order ~default:0) (linear_or t Linear.buffered ~default:0)

let missing t =
  match lattice_or t Online.missing ~default:None with
  | Some m -> Some m
  | None -> linear_or t Linear.missing ~default:None

let next_index t tid =
  match t.online with
  | Some o -> Online.next_index o tid
  | None -> linear_or t (fun l -> Linear.next_index l tid) ~default:1

let verdict_lines t =
  match t.linear with
  | None -> []
  | Some l ->
      List.map
        (fun kind ->
          ( Engine.kind_to_string kind,
            match kind with
            | Engine.Race -> Race.verdict_of_report (Race.Core.report (Option.get l.race))
            | _ -> Atomicity.verdict_of_report (Atomicity.Core.report (Option.get l.atomicity))
          ))
        l.order

let analyze ?(metered = []) kinds exec =
  let nthreads = Trace.Exec.nthreads exec in
  let race = if List.mem Engine.Race kinds then Some (Race.Core.create ~nthreads ()) else None in
  let atomicity =
    if List.mem Engine.Atomicity kinds then Some (Atomicity.Core.create ~nthreads) else None
  in
  if race <> None || atomicity <> None then
    Linear.replay exec (sink_of ~metered:(fun k -> List.mem k metered) race atomicity);
  (Option.map Race.Core.report race, Option.map Atomicity.Core.report atomicity)

(* {1 Resource accounting}

   All O(1) over maintained counters — the budget layer evaluates these
   after every feed.  The one delivery buffer of the linear front end is
   counted once, however many cores it feeds. *)

let frontier_cuts t = lattice_or t Online.frontier_cuts ~default:0
let causal_buffered t = linear_or t Linear.buffered ~default:0

let mem_words t =
  lattice_or t Online.mem_words ~default:0 + linear_or t Linear.mem_words ~default:0

(* {1 Degradation}

   The engine set a degraded bundle runs: every non-lattice engine it
   already had, plus the linear-time race and atomicity engines.  Both
   [degrade] and the degraded [restore] path derive the set from this
   one function so kill/resume lands on the same bundle. *)

let degraded_kinds kinds =
  let others = linear_kinds kinds in
  others @ List.filter (fun k -> not (List.mem k others)) [ Engine.Race; Engine.Atomicity ]

let degrade t ~reason =
  match t.online with
  | None -> invalid_arg "Engines.degrade: no lattice engine to degrade"
  | Some o ->
      let order = degraded_kinds t.kinds in
      let linear =
        match t.linear with
        | Some l ->
            (* Cores the bundle already ran keep their state and the
               front end; the missing ones join it empty. *)
            attach ?race:l.race ?atomicity:l.atomicity l.front order
        | None ->
            (* Between feeds the lattice's delivered/pending split is a
               clean causal boundary: it seeds the delivery buffer.  The
               cores start empty and cover only the stream suffix, which
               the degraded marker records. *)
            let prefix, ended, pending = Online.handoff o in
            let start =
              { Causal.snap_delivered = prefix;
                snap_ended = ended;
                snap_pending = pending;
                snap_peak_buffered = List.length pending }
            in
            attach (Linear.create ~start ~nthreads:t.nthreads ()) order
      in
      t.linear <- Some linear;
      t.degraded <-
        Some
          { d_from = "lattice";
            d_reason = reason;
            d_at_event = t.events;
            d_violated = Online.violated o };
      t.online <- None

(* {1 Checkpointing}

   One [linear 2] block: the front end once (sync clocks, then the
   delivery buffer), then a section per core, headed [race-core
   <accesses> <pairs>] / [atomicity-core <transactions>].  It is the
   only layout that loads: a [linear 1] block, or the [race 1] /
   [atomicity 1] blocks of builds before the shared front end, is
   refused by its version line. *)

let block_name = "linear"
let version = "linear 2"

let write_block l =
  let open Engine.Snapshot in
  let lines = ref [] in
  push lines version;
  Linear.write lines l.front;
  Option.iter
    (fun r ->
      let accesses, pairs = Race.Core.counts r in
      push lines (Printf.sprintf "race-core %d %d" accesses pairs);
      Race.Core.write lines r)
    l.race;
  Option.iter
    (fun a ->
      push lines (Printf.sprintf "atomicity-core %d" (Atomicity.Core.transactions a));
      Atomicity.Core.write lines a)
    l.atomicity;
  List.rev !lines

let snapshots t =
  match t.linear with None -> [] | Some l -> [ (block_name, write_block l) ]

let refuse fmt = Printf.ksprintf (fun s -> invalid_arg ("Engines.restore: " ^ s)) fmt

let check_version (name, lines) =
  match lines with
  | v :: _ when name = block_name && v = version -> ()
  | v :: _ -> refuse "engine block %S has version %S; this build reads %S only" name v version
  | [] -> refuse "engine block %S is empty" name

(* The block's front end and the cores [order] selects.  A block is
   taken only in the form the restored state writes back, so every
   field, count and ordering reads one way. *)
let read_block order lines =
  let what = block_name ^ " engine" in
  let open Engine.Snapshot in
  let r = reader (List.tl lines) in
  let front = Linear.read ~what r in
  let nthreads = Linear.nthreads front in
  let section key ~n read =
    if next_key r <> Some key then None
    else Some (read (Array.map (nat ~what) (fields ~what ~key ~n r)))
  in
  let race =
    section "race-core" ~n:2 (fun c ->
        Race.Core.read ~what ~nthreads ~accesses:c.(0) ~pairs:c.(1) r)
  in
  let atomicity =
    section "atomicity-core" ~n:1 (fun c ->
        Atomicity.Core.read ~what ~nthreads ~transactions:c.(0) r)
  in
  if not (eof r) then invalid_arg (what ^ ": trailing lines in snapshot");
  List.iter
    (fun (k, carried) ->
      match (List.mem k order, carried) with
      | true, false -> refuse "checkpoint has no state for engine %S" (Engine.kind_to_string k)
      | false, true ->
          refuse "checkpoint has state for unselected engine %S" (Engine.kind_to_string k)
      | _ -> ())
    [ (Engine.Race, Option.is_some race); (Engine.Atomicity, Option.is_some atomicity) ];
  let l = attach ?race ?atomicity front order in
  if write_block l <> lines then
    invalid_arg (what ^ ": block is not in the form its state writes");
  l

let restore ?degraded ~kinds ~nthreads ~spec ~online_snapshot ~blocks ~events () =
  validate_kinds kinds ~spec;
  List.iter check_version blocks;
  let online =
    match (List.mem Engine.Lattice kinds, degraded, online_snapshot) with
    | _, Some _, Some _ -> refuse "checkpoint is degraded yet carries lattice engine state"
    | _, Some _, None -> None
    | true, None, Some snap -> Some (Online.restore ~spec:(Option.get spec) snap)
    | true, None, None -> refuse "checkpoint has no lattice engine state"
    | false, None, Some _ ->
        refuse "checkpoint has lattice engine state but the lattice engine is not selected"
    | false, None, None -> None
  in
  let order =
    match degraded with Some _ -> degraded_kinds kinds | None -> linear_kinds kinds
  in
  let linear =
    match (order, blocks) with
    | [], [] -> None
    | [], _ :: _ -> refuse "checkpoint has state for unselected engine %S" block_name
    | k :: _, [] -> refuse "checkpoint has no state for engine %S" (Engine.kind_to_string k)
    | _, [ (_, lines) ] -> Some (read_block order lines)
    | _, _ -> refuse "checkpoint has more than one %S block" block_name
  in
  Option.iter
    (fun l ->
      if Linear.nthreads l.front <> nthreads then
        refuse "engine state for %d threads, stream of %d" (Linear.nthreads l.front) nthreads)
    linear;
  { kinds; online; linear; events; degraded; nthreads }

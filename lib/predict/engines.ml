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
  max_buffered : int option;
  overflow_limit : int option;
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

let create ?max_buffered ?overflow_limit ~kinds ~nthreads ~init ~spec () =
  validate_kinds kinds ~spec;
  let online =
    if List.mem Engine.Lattice kinds then
      Some (Online.create ?max_buffered ~nthreads ~init ~spec:(Option.get spec) ())
    else None
  in
  let linear =
    match linear_kinds kinds with
    | [] -> None
    | order -> Some (attach (Linear.create ?max_buffered ?overflow_limit ~nthreads ()) order)
  in
  { kinds; online; linear; events = 0; degraded = None; nthreads; max_buffered; overflow_limit }

(* [match]es, not [Option.iter]: a closure over [m] would be allocated
   per message. *)
let feed t m =
  t.events <- t.events + 1;
  (match t.online with Some o -> Online.feed o m | None -> ());
  match t.linear with
  | None -> ()
  | Some l ->
      if M.enabled () then List.iter (fun k -> M.incr (List.assq k m_events)) l.order;
      Linear.feed l.front l.sink m

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

let buffered t =
  max (lattice_or t Online.buffered ~default:0) (linear_or t Linear.buffered ~default:0)

let out_of_order t =
  max (lattice_or t Online.out_of_order ~default:0) (linear_or t Linear.out_of_order ~default:0)

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
  (* ~16 words per message parked in the delivery buffer. *)
  lattice_or t Online.mem_words ~default:0 + (16 * causal_buffered t)

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
                snap_peak_buffered = List.length pending;
                snap_delivered_total = Array.fold_left ( + ) 0 prefix }
            in
            attach
              (Linear.create ?max_buffered:t.max_buffered ?overflow_limit:t.overflow_limit
                 ~start ~nthreads:t.nthreads ())
              order
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

   One [linear 1] block: the front end once (sync clocks, delivery
   buffer, a [counts <events> <out-of-order>] line), then a section per
   core, headed [race-core <accesses> <pairs>] / [atomicity-core
   <transactions>].
   Older checkpoints carry a [race 1] and/or an [atomicity 1] block, each
   with its own copy of the front end and its core's counts leading the
   [counts] line; they load when the copies agree. *)

let block_name = "linear"
let version = "linear 1"

let snapshots t =
  match t.linear with
  | None -> []
  | Some l ->
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
      [ (block_name, List.rev !lines) ]

let refuse fmt = Printf.ksprintf (fun s -> invalid_arg ("Engines.restore: " ^ s)) fmt

(* One block — [linear 1], or a legacy [race 1] / [atomicity 1] — as
   its front-end lines (between the version and counts lines), the front
   end and the cores it carries. *)
let read_block ?max_buffered ?overflow_limit (name, lines) =
  let what = name ^ " engine" in
  let open Engine.Snapshot in
  let kind =
    match Engine.kind_of_string name with
    | Some (Engine.Race | Engine.Atomicity) as k -> k
    | _ when name = block_name -> None
    | _ -> refuse "checkpoint has state for unselected engine %S" name
  in
  let r = reader lines in
  let v = line ~what r in
  if v <> name ^ " 1" then
    invalid_arg (Printf.sprintf "%s: unsupported snapshot version %S" what v);
  let head = ref [] in
  let front =
    Linear.read ~what ?max_buffered ?overflow_limit r ~events:(fun r ->
        match List.rev_map (int ~what) (keyed ~what ~key:"counts" r) with
        | ooo :: events :: rest ->
            head := List.rev rest;
            (events, ooo)
        | _ -> invalid_arg (what ^ ": malformed counts line"))
  in
  let nthreads = Linear.nthreads front in
  let race = function
    | [ accesses; pairs ] -> Race.Core.read ~what ~nthreads ~accesses ~pairs r
    | _ -> invalid_arg (what ^ ": malformed race counts")
  in
  let atomicity = function
    | [ transactions ] -> Atomicity.Core.read ~what ~nthreads ~transactions r
    | _ -> invalid_arg (what ^ ": malformed atomicity counts")
  in
  (* A legacy block's core counts lead its counts line; [linear 1] heads
     each core's section with its own. *)
  let race, atomicity =
    match (kind, !head) with
    | Some Engine.Race, head -> (Some (race head), None)
    | Some _, head -> (None, Some (atomicity head))
    | None, [] ->
        let section key read =
          if next_key r = Some key then Some (read (List.map (int ~what) (keyed ~what ~key r)))
          else None
        in
        let race = section "race-core" race in
        (race, section "atomicity-core" atomicity)
    | None, _ -> invalid_arg (what ^ ": malformed counts line")
  in
  if not (eof r) then invalid_arg (what ^ ": trailing lines in snapshot");
  let rec shared = function
    | l :: rest when not (String.starts_with ~prefix:"counts " l) -> l :: shared rest
    | _ -> []
  in
  (shared (List.tl lines), front, race, atomicity)

let read_blocks ?max_buffered ?overflow_limit order blocks =
  let blocks = List.map (read_block ?max_buffered ?overflow_limit) blocks in
  let carried =
    List.concat_map
      (fun (_, _, r, a) ->
        (if Option.is_none r then [] else [ Engine.Race ])
        @ if Option.is_none a then [] else [ Engine.Atomicity ])
      blocks
  in
  List.iter
    (fun k ->
      match (List.mem k order, List.mem k carried) with
      | true, false -> refuse "checkpoint has no state for engine %S" (Engine.kind_to_string k)
      | false, true ->
          refuse "checkpoint has state for unselected engine %S" (Engine.kind_to_string k)
      | _ -> ())
    [ Engine.Race; Engine.Atomicity ];
  let shared, front, _, _ = List.hd blocks in
  List.iter
    (fun (s, _, _, _) ->
      if s <> shared then
        refuse "the race 1 and atomicity 1 blocks disagree on the delivery buffer or sync clocks")
    blocks;
  attach
    ?race:(List.find_map (fun (_, _, r, _) -> r) blocks)
    ?atomicity:(List.find_map (fun (_, _, _, a) -> a) blocks)
    front order

let restore ?max_buffered ?overflow_limit ?degraded ~kinds ~nthreads ~init:_ ~spec
    ~online_snapshot ~blocks ~events () =
  validate_kinds kinds ~spec;
  let online =
    match (List.mem Engine.Lattice kinds, degraded, online_snapshot) with
    | _, Some _, Some _ -> refuse "checkpoint is degraded yet carries lattice engine state"
    | _, Some _, None -> None
    | true, None, Some snap -> Some (Online.restore ?max_buffered ~spec:(Option.get spec) snap)
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
    | [], (name, _) :: _ -> refuse "checkpoint has state for unselected engine %S" name
    | _ -> Some (read_blocks ?max_buffered ?overflow_limit order blocks)
  in
  Option.iter
    (fun l ->
      if Linear.nthreads l.front <> nthreads then
        refuse "engine state for %d threads, stream of %d" (Linear.nthreads l.front) nthreads)
    linear;
  { kinds; online; linear; events; degraded; nthreads; max_buffered; overflow_limit }

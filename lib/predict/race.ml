open Trace
module M = Telemetry.Metrics

type access = {
  eid : int;
  tid : Types.tid;
  var : Types.var;
  is_write : bool;
  vc : Vclock.t;
}

type race = { first : access; second : access }

type report = {
  races : race list;
  pairs_found : int;
  racy_vars : Types.var list;
  accesses : int;
}

module Sset = Set.Make (String)

(* {1 Bounded per-variable clock summaries}

   For each variable and thread we keep only the latest write and latest
   read.  A thread's own clock component strictly increases across its
   events, so the latest access per (variable, thread, direction)
   carries the maximal own component — and when accesses are processed
   in a causal linearization, an earlier access [prev] by thread [u] is
   concurrent with the current access [c] iff [prev.vc(u) > c.vc(u)]
   (the converse precedence is impossible once [c] is processed after
   [prev]).  "Some earlier conflicting access of [u] races with [c]"
   therefore collapses to one comparison against the stored maximum:
   O(threads) per access instead of a rescan of the whole bucket. *)

type summary = {
  s_nthreads : int;
  s_writes : (Types.var, access option array) Hashtbl.t;
  s_reads : (Types.var, access option array) Hashtbl.t;
}

let summary_create ~nthreads =
  { s_nthreads = nthreads;
    s_writes = Hashtbl.create 16;
    s_reads = Hashtbl.create 16 }

let slots table x n =
  match Hashtbl.find_opt table x with
  | Some a -> a
  | None ->
      let a = Array.make n None in
      Hashtbl.replace table x a;
      a

(* 1 after calling [on_pair prev this] when [prev], the stored access
   of thread [u], races with [this]; 0 otherwise. *)
let race_with on_pair u prev (this : access) =
  match prev with
  | Some prev when Vclock.get prev.vc u > Vclock.get this.vc u ->
      on_pair prev this;
      1
  | Some _ | None -> 0

(* Record one access (processed in causal order), call [on_pair] for
   every stored access it races with — threads ascending, a thread's
   write before its read — and return how many there were. *)
let summary_observe s (this : access) on_pair =
  let writes = slots s.s_writes this.var s.s_nthreads in
  let reads = slots s.s_reads this.var s.s_nthreads in
  let n = ref 0 in
  for u = 0 to s.s_nthreads - 1 do
    if u <> this.tid then begin
      n := !n + race_with on_pair u writes.(u) this;
      if this.is_write then n := !n + race_with on_pair u reads.(u) this
    end
  done;
  if this.is_write then writes.(this.tid) <- Some this
  else reads.(this.tid) <- Some this;
  !n

let detect ?(max_races = 10_000) exec =
  let clocks = Syncclock.create ~nthreads:(Exec.nthreads exec) in
  let summary = summary_create ~nthreads:(Exec.nthreads exec) in
  let races = ref [] in
  let kept = ref 0 in
  let pairs_found = ref 0 in
  let accesses = ref 0 in
  let racy = ref Sset.empty in
  (* Pairs past the cap are counted, never built. *)
  let keep first second =
    if !kept < max_races then begin
      incr kept;
      races := { first; second } :: !races
    end
  in
  Array.iter
    (fun (e : Event.t) ->
      match Syncclock.observe clocks e with
      | None -> ()
      | Some vc ->
          incr accesses;
          let x = Option.get (Event.variable e) in
          let this =
            { eid = e.eid; tid = e.tid; var = x; is_write = Event.is_write e; vc }
          in
          let n = summary_observe summary this keep in
          if n > 0 then begin
            pairs_found := !pairs_found + n;
            racy := Sset.add x !racy
          end)
    (Exec.events exec);
  { races = List.rev !races;
    pairs_found = !pairs_found;
    racy_vars = Sset.elements !racy;
    accesses = !accesses }

let race_free r = r.racy_vars = []

let pp_access ppf a =
  Format.fprintf ppf "%s of %s by %a at e%d %a"
    (if a.is_write then "write" else "read")
    a.var Types.pp_tid a.tid a.eid Vclock.pp a.vc

let pp_race ppf { first; second } =
  Format.fprintf ppf "race: %a || %a" pp_access first pp_access second

let pp_report ppf r =
  match r.racy_vars with
  | [] -> Format.fprintf ppf "no data races predicted (%d accesses)" r.accesses
  | vars ->
      let shown = List.length r.races in
      if r.pairs_found > shown then
        Format.fprintf ppf "@[<v>%d racy pairs (%d shown) on {%s} (%d accesses)@,%a@]"
          r.pairs_found shown (String.concat ", " vars) r.accesses
          (Format.pp_print_list pp_race)
          r.races
      else
        Format.fprintf ppf "@[<v>%d racy pairs on {%s} (%d accesses)@,%a@]"
          r.pairs_found (String.concat ", " vars) r.accesses
          (Format.pp_print_list pp_race)
          r.races

(* {1 Canonical verdict} *)

let verdict ~racy_vars ~accesses =
  match racy_vars with
  | [] -> Printf.sprintf "predict.race: no data races predicted (%d accesses)" accesses
  | vars ->
      Printf.sprintf "predict.race: RACES PREDICTED on {%s} (%d accesses)"
        (String.concat ", " vars) accesses

let verdict_of_report r = verdict ~racy_vars:r.racy_vars ~accesses:r.accesses

(* {1 The streaming engine} *)

let m_events = M.counter "predict.race.events"
let m_pairs = M.counter "predict.race.pairs"
let m_racy = M.counter "predict.race.racy_vars"

type engine = {
  e_clocks : Syncclock.t;
  e_causal : Causal.t;
  e_summary : summary;
  mutable e_racy : Sset.t;
  mutable e_accesses : int;
  mutable e_pairs : int;
  mutable e_events : int;
  mutable e_ooo : int;
}

let deliver st (m : Message.t) =
  let var, is_read =
    match Types.as_read m.Message.var with
    | Some x -> (x, true)
    | None -> (m.Message.var, false)
  in
  match Syncclock.observe_access st.e_clocks m.Message.tid ~var ~is_read with
  | None -> ()
  | Some vc ->
      st.e_accesses <- st.e_accesses + 1;
      let this =
        { eid = m.Message.eid; tid = m.Message.tid; var; is_write = not is_read; vc }
      in
      let n = summary_observe st.e_summary this (fun _ _ -> ()) in
      if n > 0 then begin
        st.e_pairs <- st.e_pairs + n;
        if M.enabled () then M.add m_pairs n;
        if not (Sset.mem var st.e_racy) then begin
          st.e_racy <- Sset.add var st.e_racy;
          if M.enabled () then M.incr m_racy
        end
      end

let engine_feed st m =
  st.e_events <- st.e_events + 1;
  if M.enabled () then M.incr m_events;
  let delivered = Causal.feed st.e_causal m in
  if not (List.memq m delivered) then st.e_ooo <- st.e_ooo + 1;
  List.iter (deliver st) delivered

let snapshot_version = "race 1"

let engine_snapshot st =
  let lines = ref [] in
  let open Engine.Snapshot in
  push lines snapshot_version;
  add_syncclock lines (Syncclock.snapshot st.e_clocks);
  add_causal lines (Causal.snapshot st.e_causal);
  push lines
    (Printf.sprintf "counts %d %d %d %d" st.e_accesses st.e_pairs st.e_events
       st.e_ooo);
  push lines (Printf.sprintf "racy %d" (Sset.cardinal st.e_racy));
  Sset.iter (fun x -> push lines (Printf.sprintf "rv %s" x)) st.e_racy;
  let table name slots_table =
    let entries =
      Hashtbl.fold
        (fun x arr acc ->
          (Array.to_list arr
          |> List.filter_map (fun a -> a)
          |> List.map (fun a -> (x, a)))
          @ acc)
        slots_table []
      |> List.sort (fun ((xa : string), (a : access)) (xb, b) ->
             compare (xa, a.tid) (xb, b.tid))
    in
    push lines (Printf.sprintf "%s %d" name (List.length entries));
    List.iter
      (fun ((x : string), (a : access)) ->
        push lines
          (Printf.sprintf "la %s %d %d %s" x a.tid a.eid (Vclock.to_string a.vc)))
      entries
  in
  table "writes" st.e_summary.s_writes;
  table "reads" st.e_summary.s_reads;
  List.rev !lines

let instance_of st =
  { Engine.name = "race";
    feed = engine_feed st;
    end_of_thread = Causal.end_of_thread st.e_causal;
    finish = (fun () -> Causal.finish st.e_causal);
    violated = (fun () -> not (Sset.is_empty st.e_racy));
    verdict =
      (fun () ->
        verdict ~racy_vars:(Sset.elements st.e_racy) ~accesses:st.e_accesses);
    events = (fun () -> st.e_events);
    buffered = (fun () -> Causal.buffered st.e_causal);
    out_of_order = (fun () -> st.e_ooo);
    missing = (fun () -> Causal.missing st.e_causal);
    snapshot = (fun () -> engine_snapshot st) }

let engine_create (ctx : Engine.ctx) =
  instance_of
    { e_clocks = Syncclock.create ~nthreads:ctx.Engine.nthreads;
      e_causal =
        (* A [start] cut (the degrade handoff) seeds the delivery buffer
           mid-stream; summaries still start empty — suffix-only
           coverage, flagged by the caller's degraded marker. *)
        (match ctx.Engine.start with
        | Some cut ->
            Causal.restore ?max_buffered:ctx.Engine.max_buffered
              ?overflow_limit:ctx.Engine.overflow_limit cut
        | None ->
            Causal.create ?max_buffered:ctx.Engine.max_buffered
              ?overflow_limit:ctx.Engine.overflow_limit
              ~nthreads:ctx.Engine.nthreads ());
      e_summary = summary_create ~nthreads:ctx.Engine.nthreads;
      e_racy = Sset.empty;
      e_accesses = 0;
      e_pairs = 0;
      e_events = 0;
      e_ooo = 0 }

let engine_restore (ctx : Engine.ctx) lines =
  let what = "race engine" in
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
  let accesses, pairs, events, ooo =
    match keyed ~what ~key:"counts" r with
    | [ a; p; e; o ] -> (int ~what a, int ~what p, int ~what e, int ~what o)
    | _ -> invalid_arg (what ^ ": malformed counts line")
  in
  let racy =
    match keyed ~what ~key:"racy" r with
    | [ n ] ->
        List.init (int ~what n) (fun _ ->
            match keyed ~what ~key:"rv" r with
            | [ x ] -> x
            | _ -> invalid_arg (what ^ ": malformed rv line"))
        |> Sset.of_list
    | _ -> invalid_arg (what ^ ": malformed racy line")
  in
  let nthreads = Causal.nthreads causal in
  let summary = summary_create ~nthreads in
  let table name slots_table is_write =
    match keyed ~what ~key:name r with
    | [ n ] ->
        for _ = 1 to int ~what n do
          match keyed ~what ~key:"la" r with
          | [ x; tid; eid; vc ] ->
              let tid = int ~what tid in
              if tid < 0 || tid >= nthreads then
                invalid_arg (what ^ ": summary thread id out of range");
              (slots slots_table x nthreads).(tid) <-
                Some
                  { eid = int ~what eid;
                    tid;
                    var = x;
                    is_write;
                    vc = clock ~what vc }
          | _ -> invalid_arg (what ^ ": malformed la line")
        done
    | _ -> invalid_arg (Printf.sprintf "%s: malformed %s line" what name)
  in
  table "writes" summary.s_writes true;
  table "reads" summary.s_reads false;
  if not (eof r) then invalid_arg (what ^ ": trailing lines in snapshot");
  instance_of
    { e_clocks = clocks;
      e_causal = causal;
      e_summary = summary;
      e_racy = racy;
      e_accesses = accesses;
      e_pairs = pairs;
      e_events = events;
      e_ooo = ooo }

let factory = { Engine.create = engine_create; restore = engine_restore }

open Trace
module M = Telemetry.Metrics

type access = {
  eid : int;
  tid : Types.tid;
  var : Types.var;
  is_write : bool;
  epoch : Syncclock.epoch;
}

type race = { first : access; second : access }

type report = {
  races : race list;
  pairs_found : int;
  racy_vars : Types.var list;
  accesses : int;
}

module Sset = Set.Make (String)

let m_pairs = M.counter "predict.race.pairs"
let m_racy = M.counter "predict.race.racy_vars"

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

module Core = struct
  (* By thread: the latest write and read, and their own clock
     components (0 for none) for the scan. *)
  type slots = {
    writes : access array;
    reads : access array;
    w_own : int array;
    r_own : int array;
  }

  type t = {
    nthreads : int;
    vars : (Types.var, slots) Hashtbl.t;
    max_races : int;
    mutable races : race list;  (* kept pairs, newest first *)
    mutable kept : int;
    mutable pairs : int;
    mutable accesses : int;
    mutable racy : Sset.t;
  }

  let create ?(max_races = 10_000) ~nthreads () =
    { nthreads; vars = Hashtbl.create 16; max_races; races = []; kept = 0;
      pairs = 0; accesses = 0; racy = Sset.empty }

  (* The empty slot. *)
  let none =
    { eid = -1; tid = -1; var = ""; is_write = false;
      epoch = Syncclock.of_vclock 0 (Vclock.zero 1) }

  let slots t x =
    match Hashtbl.find_opt t.vars x with
    | Some s -> s
    | None ->
        let n = t.nthreads in
        let s =
          { writes = Array.make n none; reads = Array.make n none; w_own = Array.make n 0;
            r_own = Array.make n 0 }
        in
        Hashtbl.replace t.vars x s;
        s

  (* Pairs past the cap are counted, never built. *)
  let keep t first second =
    if t.kept < t.max_races then begin
      t.kept <- t.kept + 1;
      t.races <- { first; second } :: t.races
    end

  (* [a.epoch] is [a.tid]'s, so its own component is [own]. *)
  let store s a =
    let own = a.epoch.Syncclock.own in
    if a.is_write then begin
      s.writes.(a.tid) <- a;
      s.w_own.(a.tid) <- own
    end
    else begin
      s.reads.(a.tid) <- a;
      s.r_own.(a.tid) <- own
    end

  (* One access, in causal order: pairs with every stored access it
     races with — threads ascending, a thread's write before its read —
     then becomes its thread's latest of its direction. *)
  let access t ~metered tid var ~is_write ~eid epoch =
    t.accesses <- t.accesses + 1;
    let this = { eid; tid; var; is_write; epoch } in
    let s = slots t var in
    let base = epoch.Syncclock.base in
    let n = ref 0 in
    for u = 0 to t.nthreads - 1 do
      if u <> tid then begin
        (* [epoch] is [tid]'s: for every other [u], [Syncclock.get epoch u]. *)
        let known = base.(u) in
        if s.w_own.(u) > known then begin
          incr n;
          keep t s.writes.(u) this
        end;
        if is_write && s.r_own.(u) > known then begin
          incr n;
          keep t s.reads.(u) this
        end
      end
    done;
    store s this;
    if !n > 0 then begin
      t.pairs <- t.pairs + !n;
      let metered = metered && M.enabled () in
      if metered then M.add m_pairs !n;
      if not (Sset.mem var t.racy) then begin
        t.racy <- Sset.add var t.racy;
        if metered then M.incr m_racy
      end
    end

  let sink ?(metered = false) t = { Linear.lock = (fun _ _ _ -> ()); access = access t ~metered }

  let report t =
    { races = List.rev t.races;
      pairs_found = t.pairs;
      racy_vars = Sset.elements t.racy;
      accesses = t.accesses }

  let violated t = not (Sset.is_empty t.racy)
  let counts t = (t.accesses, t.pairs)

  (* {2 Snapshot section} *)

  let write lines t =
    let open Engine.Snapshot in
    push_counted lines "racy" (Sset.elements t.racy) (fun x -> [ "rv " ^ x ]);
    let table name pick =
      push_counted lines name
        (Hashtbl.fold
           (fun _ s acc -> List.filter (fun a -> a != none) (Array.to_list (pick s)) @ acc)
           t.vars []
        |> List.sort (fun (a : access) b -> compare (a.var, a.tid) (b.var, b.tid)))
        (fun a ->
          [ Printf.sprintf "la %s %d %d %s" a.var a.tid a.eid
              (Vclock.to_string (Syncclock.to_vclock a.epoch)) ])
    in
    table "writes" (fun s -> s.writes);
    table "reads" (fun s -> s.reads)

  let read ~what ~nthreads ~accesses ~pairs r =
    let open Engine.Snapshot in
    let t = { (create ~max_races:0 ~nthreads ()) with accesses; pairs } in
    t.racy <-
      Sset.of_list
        (counted ~what ~key:"racy" r (fun () ->
             match keyed ~what ~key:"rv" r with
             | [ x ] -> x
             | _ -> invalid_arg (what ^ ": malformed rv line")));
    let table name is_write =
      ignore
        (counted ~what ~key:name r (fun () ->
             match keyed ~what ~key:"la" r with
             | [ x; tid; eid; vc ] ->
                 let tid = int ~what tid and vc = clock ~what vc in
                 if tid < 0 || tid >= nthreads then
                   invalid_arg (what ^ ": summary thread id out of range");
                 if Vclock.dim vc <> nthreads then
                   invalid_arg (what ^ ": summary clock width disagrees with thread count");
                 store (slots t x)
                   { eid = int ~what eid; tid; var = x; is_write;
                     epoch = Syncclock.of_vclock tid vc }
             | _ -> invalid_arg (what ^ ": malformed la line")))
    in
    table "writes" true;
    table "reads" false;
    t
end

let detect ?max_races exec =
  let core = Core.create ?max_races ~nthreads:(Exec.nthreads exec) () in
  Linear.replay exec (Core.sink core);
  Core.report core

let race_free r = r.racy_vars = []

let pp_access ppf a =
  Format.fprintf ppf "%s of %s by %a at e%d %a"
    (if a.is_write then "write" else "read")
    a.var Types.pp_tid a.tid a.eid Vclock.pp (Syncclock.to_vclock a.epoch)

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

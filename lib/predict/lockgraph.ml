open Trace

type edge = { held : string; acquired : string; tid : Types.tid; eid : int }

type report = {
  locks : string list;
  edges : edge list;
  cycles : string list list;
}

module Sset = Set.Make (String)

let canonical_rotation cycle =
  (* Rotate a lock cycle so its smallest element comes first, for
     deduplication. *)
  let arr = Array.of_list cycle in
  let n = Array.length arr in
  let best = ref 0 in
  for i = 1 to n - 1 do
    if arr.(i) < arr.(!best) then best := i
  done;
  List.init n (fun i -> arr.((!best + i) mod n))

let find_cycles edges =
  (* Adjacency with the set of threads witnessing each edge. *)
  let adj : (string, (string * int list) list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let outs = Option.value ~default:[] (Hashtbl.find_opt adj e.held) in
      let outs =
        match List.assoc_opt e.acquired outs with
        | Some tids when List.mem e.tid tids -> outs
        | Some tids ->
            (e.acquired, e.tid :: tids) :: List.remove_assoc e.acquired outs
        | None -> (e.acquired, [ e.tid ]) :: outs
      in
      Hashtbl.replace adj e.held outs)
    edges;
  let nodes = Hashtbl.fold (fun l _ acc -> l :: acc) adj [] |> List.sort_uniq compare in
  let cycles = ref [] in
  let max_cycles = 100 and max_len = 8 in
  (* Enumerate simple cycles by DFS from each start node, keeping only
     cycles whose smallest lock is the start (canonical), and whose edges
     are not all from one thread. *)
  let rec dfs start path path_tids node =
    if List.length !cycles < max_cycles && List.length path <= max_len then
      List.iter
        (fun (next, tids) ->
          if next = start then begin
            let involved = List.sort_uniq compare (tids @ path_tids) in
            if List.length involved >= 2 then begin
              let cycle = canonical_rotation (List.rev (node :: path)) in
              if not (List.mem cycle !cycles) then cycles := cycle :: !cycles
            end
          end
          else if next > start && not (List.mem next (node :: path)) then
            dfs start (node :: path) (tids @ path_tids) next)
        (Option.value ~default:[] (Hashtbl.find_opt adj node))
  in
  List.iter (fun start -> dfs start [] [] start) nodes;
  List.rev !cycles

let analyze exec =
  let n = Exec.nthreads exec in
  let held = Array.init n (fun _ -> Hashtbl.create 4) in
  let edges = ref [] in
  let locks = ref Sset.empty in
  Array.iter
    (fun (e : Event.t) ->
      match e.kind with
      | Event.Write (x, v) -> (
          match Types.as_lock x with
          | None -> ()
          | Some l ->
              locks := Sset.add l !locks;
              let table = held.(e.tid) in
              if v = 1 then begin
                (* Acquire: one edge from every currently held lock. *)
                if not (Hashtbl.mem table l) then
                  Hashtbl.iter
                    (fun other _ ->
                      edges := { held = other; acquired = l; tid = e.tid; eid = e.eid } :: !edges)
                    table;
                Hashtbl.replace table l
                  (1 + Option.value ~default:0 (Hashtbl.find_opt table l))
              end
              else begin
                match Hashtbl.find_opt table l with
                | Some 1 -> Hashtbl.remove table l
                | Some k when k > 1 -> Hashtbl.replace table l (k - 1)
                | _ -> invalid_arg "Lockgraph.analyze: release of a lock not held"
              end)
      | Event.Read _ | Event.Internal -> ())
    (Exec.events exec);
  let edges = List.rev !edges in
  { locks = Sset.elements !locks; edges; cycles = find_cycles edges }

let deadlock_free r = r.cycles = []

let pp_report ppf r =
  Format.fprintf ppf "@[<v>locks: {%s}, %d hold-acquire edges@,"
    (String.concat ", " r.locks) (List.length r.edges);
  (match r.cycles with
  | [] -> Format.fprintf ppf "no lock-order cycles: deadlock-free@]"
  | cycles ->
      Format.fprintf ppf "potential deadlocks:@,";
      List.iter
        (fun c -> Format.fprintf ppf "  cycle: %s@," (String.concat " -> " (c @ [ List.hd c ])))
        cycles;
      Format.fprintf ppf "@]")

open Trace
module M = Telemetry.Metrics

let m_level_nodes = M.series "lattice.level_nodes"
let m_nodes = M.counter "lattice.nodes"
let m_sat = M.counter "lattice.run_count_saturated"

type node = {
  id : int;
  cut : int array;
  state : Pastltl.State.t;
  level : int;
}

type edge = { src : int; dst : int; label : Message.t }

type t = {
  comp : Computation.t;
  nodes : node array;
  by_cut : Frontier.Cutset.t;  (* node id = interned cut id *)
  succ : (Message.t * int) list array;  (* indexed by node id *)
  pred : (Message.t * int) list array;
  levels : int list array;  (* node ids per level, ascending *)
}

exception Too_large of int

(* Frontier payload during the build: the node id once the level is
   finalized, the global state, and the incoming edges ((source node
   id, message) pairs).  [merge] concatenates predecessor lists. *)
type building = {
  mutable nid : int;
  bstate : Pastltl.State.t;
  preds : (int * Message.t) list;
}

module F_payload = struct
  type t = building

  let merge a b = { nid = -1; bstate = a.bstate; preds = a.preds @ b.preds }
end

module F = Frontier.Make (F_payload)

let build_body ?(max_nodes = 200_000) comp =
  let width = Computation.nthreads comp in
  let by_cut = Frontier.Cutset.create ~capacity:64 ~width () in
  let rev_nodes = ref [] in
  let rev_edges = ref [] in
  let count = ref 0 in
  let add_node cut state level preds =
    let id = !count in
    incr count;
    if !count > max_nodes then raise (Too_large max_nodes);
    (* Node ids coincide with interned-cut ids: both are assigned in
       level order, canonical within a level. *)
    let interned = Frontier.Cutset.intern by_cut cut in
    assert (interned = id);
    rev_nodes := { id; cut = Array.copy cut; state; level } :: !rev_nodes;
    List.iter (fun (src, m) -> rev_edges := { src; dst = id; label = m } :: !rev_edges) preds;
    id
  in
  let bottom_cut = Computation.bottom comp in
  let p0 = { nid = 0; bstate = Computation.init_state comp; preds = [] } in
  p0.nid <- add_node bottom_cut p0.bstate 0 [];
  let frontier = ref (F.singleton ~width bottom_cut p0) in
  let level = ref 0 in
  let running = ref true in
  while !running do
    let next =
      let succ p cut tid =
        let m = Computation.message comp tid (cut.(tid) + 1) in
        { nid = -1; bstate = Computation.apply p.bstate m; preds = [ (p.nid, m) ] }
      in
      F.expand
        ~enabled:(fun cut tids ->
          List.fold_left
            (fun k (tid, _) ->
              tids.(k) <- tid;
              k + 1)
            0 (Computation.enabled comp cut))
        ~step:succ
        ~join:(fun q p cut tid -> F_payload.merge q (succ p cut tid))
        !frontier
    in
    if F.size next = 0 then running := false
    else begin
      incr level;
      F.iter (fun cut p -> p.nid <- add_node cut p.bstate !level p.preds) next;
      if M.deep_enabled () then M.push m_level_nodes (F.size next);
      frontier := next
    end
  done;
  if M.enabled () then begin
    M.add m_nodes !count;
    Frontier.Cutset.flush_stats by_cut
  end;
  let nodes = Array.of_list (List.rev !rev_nodes) in
  let succ = Array.make (Array.length nodes) [] in
  let pred = Array.make (Array.length nodes) [] in
  List.iter
    (fun e ->
      succ.(e.src) <- (e.label, e.dst) :: succ.(e.src);
      pred.(e.dst) <- (e.label, e.src) :: pred.(e.dst))
    !rev_edges;
  let max_level = Array.fold_left (fun acc n -> max acc n.level) 0 nodes in
  let levels = Array.make (max_level + 1) [] in
  Array.iter (fun n -> levels.(n.level) <- n.id :: levels.(n.level)) nodes;
  Array.iteri (fun i ids -> levels.(i) <- List.rev ids) levels;
  { comp; nodes; by_cut; succ; pred; levels }

let build ?max_nodes comp =
  if Telemetry.Span.enabled () then
    Telemetry.Span.with_ ~name:"lattice.build" (fun () -> build_body ?max_nodes comp)
  else build_body ?max_nodes comp

let computation t = t.comp
let node_count t = Array.length t.nodes
let edge_count t = Array.fold_left (fun acc l -> acc + List.length l) 0 t.succ

let node t id =
  if id < 0 || id >= Array.length t.nodes then invalid_arg "Lattice.node: bad id";
  t.nodes.(id)

let bottom t = t.nodes.(0)

let top t =
  Option.map (node t) (Frontier.Cutset.find t.by_cut (Computation.top t.comp))

let compare_cuts a b =
  let w = Array.length a in
  let rec go i =
    if i = w then 0
    else
      let c = compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let compare_nodes a b =
  let c = compare a.level b.level in
  if c <> 0 then c else compare_cuts a.cut b.cut

let nodes t = List.sort compare_nodes (Array.to_list t.nodes)

let level t l =
  if l < 0 || l >= Array.length t.levels then []
  else List.sort compare_nodes (List.map (node t) t.levels.(l))

let level_count t = Array.length t.levels
let max_width t = Array.fold_left (fun acc ids -> max acc (List.length ids)) 0 t.levels

let successors t n = List.rev_map (fun (m, id) -> (m, node t id)) t.succ.(n.id)
let predecessors t n = List.rev_map (fun (m, id) -> (m, node t id)) t.pred.(n.id)

(* Path-count DP with saturation: C(levels, cut) overflows 63-bit ints
   long before the lattice itself is large (e.g. an independent 2×40
   grid has 1681 nodes but C(80,40) ≈ 1.08e23 runs). *)
let sat_add a b = if a > max_int - b then max_int else a + b

let run_count_info t =
  match top t with
  | None -> (0, false)
  | Some top_node ->
      let paths = Array.make (node_count t) 0 in
      let clamped = ref false in
      paths.(0) <- 1;
      (* Node ids are assigned in level (BFS) order, so every edge goes
         from a smaller to a larger id. *)
      Array.iteri
        (fun src outs ->
          List.iter
            (fun (_, dst) ->
              let sum = sat_add paths.(dst) paths.(src) in
              if sum = max_int then clamped := true;
              paths.(dst) <- sum)
            outs)
        t.succ;
      let n = paths.(top_node.id) in
      let saturated = !clamped && n = max_int in
      if saturated then begin
        if M.enabled () then M.incr m_sat;
        if Telemetry.Span.enabled () then
          Telemetry.Span.instant ~name:"lattice.run_count_saturated" ()
      end;
      (n, saturated)

let run_count t = fst (run_count_info t)
let run_count_saturated t = snd (run_count_info t)

let runs ?(max_runs = 100_000) t =
  match top t with
  | None -> []
  | Some top_node ->
      let out = ref [] in
      let count = ref 0 in
      let rec go n acc =
        if n.id = top_node.id then begin
          incr count;
          if !count > max_runs then raise (Too_large max_runs);
          out := List.rev acc :: !out
        end
        else
          List.iter (fun (m, n') -> go n' (m :: acc)) (List.sort compare (successors t n))
      in
      go (bottom t) [];
      List.rev !out

let states_of_run t run =
  let init = Computation.init_state t.comp in
  let rec go state acc = function
    | [] -> List.rev (state :: acc)
    | m :: rest -> go (Computation.apply state m) (state :: acc) rest
  in
  go init [] run

let to_dot ?(highlight = fun _ -> false) t =
  let vars = Computation.variables t.comp in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph lattice {\n";
  Buffer.add_string buf "  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n";
  Buffer.add_string buf
    (Printf.sprintf "  label=\"computation lattice over <%s>\";\n"
       (String.concat "," vars));
  Array.iter
    (fun n ->
      let label =
        Format.asprintf "%a" (Pastltl.State.pp_values ~vars) n.state
      in
      let color = if highlight n then ", style=filled, fillcolor=\"#ffc0c0\"" else "" in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\\n(%s)\"%s];\n" n.id label
           (String.concat "," (List.map string_of_int (Array.to_list n.cut)))
           color))
    t.nodes;
  Array.iteri
    (fun src outs ->
      List.iter
        (fun ((m : Message.t), dst) ->
          Buffer.add_string buf
            (Printf.sprintf "  n%d -> n%d [label=\"%s=%d\"];\n" src dst m.var m.value))
        outs)
    t.succ;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp ppf t =
  let vars = Computation.variables t.comp in
  let nruns, saturated = run_count_info t in
  Format.fprintf ppf "@[<v>lattice: %d nodes, %d edges, %s runs@," (node_count t)
    (edge_count t)
    (if saturated then ">= max_int (saturated)" else string_of_int nruns);
  for l = 0 to level_count t - 1 do
    Format.fprintf ppf "level %d:" l;
    List.iter
      (fun n -> Format.fprintf ppf " %a" (Pastltl.State.pp_values ~vars) n.state)
      (level t l);
    Format.pp_print_cut ppf ()
  done;
  Format.fprintf ppf "@]"

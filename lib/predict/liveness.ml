open Trace

type fformula =
  | FTrue
  | FFalse
  | FAtom of Pastltl.Predicate.t
  | FNot of fformula
  | FAnd of fformula * fformula
  | FOr of fformula * fformula
  | FNext of fformula
  | FEventually of fformula
  | FAlways of fformula
  | FUntil of fformula * fformula

let eval_lasso formula ~prefix ~cycle =
  if cycle = [] then invalid_arg "Liveness.eval_lasso: empty cycle";
  let arr = Array.of_list (prefix @ cycle) in
  let m = Array.length arr in
  let p = List.length prefix in
  let succ i = if i = m - 1 then p else i + 1 in
  let rec table f =
    match f with
    | FTrue -> Array.make m true
    | FFalse -> Array.make m false
    | FAtom pr -> Array.map (Pastltl.Predicate.holds pr) arr
    | FNot g -> Array.map not (table g)
    | FAnd (g, h) -> Array.map2 ( && ) (table g) (table h)
    | FOr (g, h) -> Array.map2 ( || ) (table g) (table h)
    | FNext g ->
        let tg = table g in
        Array.init m (fun i -> tg.(succ i))
    | FEventually g ->
        let tg = table g in
        let cycle_has = ref false in
        for j = p to m - 1 do
          if tg.(j) then cycle_has := true
        done;
        let out = Array.make m !cycle_has in
        (* Positions also see the finite suffix up to the end of arr. *)
        let suffix_has = ref false in
        for i = m - 1 downto 0 do
          if tg.(i) then suffix_has := true;
          out.(i) <- out.(i) || !suffix_has
        done;
        out
    | FAlways g ->
        let tg = table g in
        let cycle_all = ref true in
        for j = p to m - 1 do
          if not tg.(j) then cycle_all := false
        done;
        let out = Array.make m !cycle_all in
        let suffix_all = ref true in
        for i = m - 1 downto 0 do
          if not tg.(i) then suffix_all := false;
          out.(i) <- out.(i) && !suffix_all
        done;
        out
    | FUntil (g, h) ->
        let tg = table g and th = table h in
        let out = Array.make m false in
        (* Least fixpoint on the cycle: backward passes until stable. *)
        let changed = ref true in
        while !changed do
          changed := false;
          for i = m - 1 downto p do
            let v = th.(i) || (tg.(i) && out.(succ i)) in
            if v <> out.(i) then begin
              out.(i) <- v;
              changed := true
            end
          done
        done;
        for i = p - 1 downto 0 do
          out.(i) <- th.(i) || (tg.(i) && out.(i + 1))
        done;
        out
  in
  let values = table formula in
  values.(0)

type lasso = {
  prefix : Message.t list;
  cycle : Message.t list;
  prefix_states : Pastltl.State.t list;
  cycle_states : Pastltl.State.t list;
}

(* Shortest event path between two lattice nodes, by BFS over
   successors; [None] when unreachable. *)
let path_between lattice (a : Observer.Lattice.node) (b : Observer.Lattice.node) =
  if a.Observer.Lattice.id = b.Observer.Lattice.id then Some []
  else begin
    let parent = Hashtbl.create 16 in
    let queue = Queue.create () in
    Queue.add a queue;
    Hashtbl.replace parent a.Observer.Lattice.id None;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let n = Queue.pop queue in
      List.iter
        (fun (msg, n') ->
          let id' = n'.Observer.Lattice.id in
          if not (Hashtbl.mem parent id') then begin
            Hashtbl.replace parent id' (Some (n.Observer.Lattice.id, msg));
            if id' = b.Observer.Lattice.id then found := true
            else Queue.add n' queue
          end)
        (Observer.Lattice.successors lattice n)
    done;
    if not !found then None
    else begin
      let rec walk id acc =
        match Hashtbl.find parent id with
        | None -> acc
        | Some (prev, msg) -> walk prev (msg :: acc)
      in
      Some (walk b.Observer.Lattice.id [])
    end
  end

let states_along lattice start_state path =
  ignore lattice;
  let rec go state acc = function
    | [] -> List.rev acc
    | m :: rest ->
        let state' = Observer.Computation.apply state m in
        go state' (state' :: acc) rest
  in
  go start_state [] path

let find_lassos ?(max_lassos = 200) lattice =
  let nodes = Observer.Lattice.nodes lattice in
  let bottom = Observer.Lattice.bottom lattice in
  let out = ref [] in
  let count = ref 0 in
  let consider (a : Observer.Lattice.node) (b : Observer.Lattice.node) =
    if
      !count < max_lassos
      && a.Observer.Lattice.id <> b.Observer.Lattice.id
      && a.Observer.Lattice.level < b.Observer.Lattice.level
      && Pastltl.State.equal a.Observer.Lattice.state b.Observer.Lattice.state
    then
      match path_between lattice a b with
      | None -> ()
      | Some cycle_path -> (
          match path_between lattice bottom a with
          | None -> ()
          | Some prefix_path ->
              incr count;
              let init = Observer.Computation.init_state (Observer.Lattice.computation lattice) in
              let prefix_states = init :: states_along lattice init prefix_path in
              let cycle_states =
                states_along lattice a.Observer.Lattice.state cycle_path
              in
              out :=
                { prefix = prefix_path; cycle = cycle_path; prefix_states; cycle_states }
                :: !out)
  in
  List.iter (fun a -> List.iter (fun b -> consider a b) nodes) nodes;
  List.rev !out

let check ?max_lassos ~spec lattice =
  let lassos = find_lassos ?max_lassos lattice in
  List.find_opt
    (fun l -> not (eval_lasso spec ~prefix:l.prefix_states ~cycle:l.cycle_states))
    lassos

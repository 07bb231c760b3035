open Trace

type epoch = { base : int array; tid : int; own : int }

let get e u = if u = e.tid then e.own else e.base.(u)

let to_vclock e =
  let a = Array.copy e.base in
  a.(e.tid) <- e.own;
  Vclock.of_array a

let of_vclock tid v = { base = Vclock.to_array v; tid; own = Vclock.get v tid }

(* A sync variable's [va] (joined over its accesses) and [vw] (its last
   write's), each [[||]] until first set. *)
type var_clocks = { mutable va : int array; mutable vw : int array }

type t = {
  vi : int array array;  (* per thread, joined in place *)
  base : int array array;  (* per thread: [vi]'s other components, immutable *)
  stale : bool array;  (* a join raised another component since [base] *)
  vars : (Types.var, var_clocks) Hashtbl.t;
}

let create ~nthreads =
  { vi = Array.init nthreads (fun _ -> Array.make nthreads 0);
    base = Array.init nthreads (fun _ -> Array.make nthreads 0);
    stale = Array.make nthreads false;
    vars = Hashtbl.create 8 }

let var_clocks t x =
  match Hashtbl.find_opt t.vars x with
  | Some v -> v
  | None ->
      let v = { va = [||]; vw = [||] } in
      Hashtbl.add t.vars x v;
      v

let absorb t tid src = if Vclock.join_into t.vi.(tid) src ~own:tid then t.stale.(tid) <- true

let sync t tid x ~is_read =
  let c = t.vi.(tid) in
  c.(tid) <- c.(tid) + 1;
  let v = var_clocks t x in
  if is_read then begin
    absorb t tid v.vw;
    if Array.length v.va = 0 then v.va <- Array.copy c
    else ignore (Vclock.join_into v.va c ~own:(-1))
  end
  else begin
    absorb t tid v.va;
    v.va <- Vclock.assign v.va c;
    v.vw <- Vclock.assign v.vw c
  end

let access t tid =
  let c = t.vi.(tid) in
  c.(tid) <- c.(tid) + 1;
  if t.stale.(tid) then begin
    t.base.(tid) <- Array.copy c;
    t.stale.(tid) <- false
  end;
  { base = t.base.(tid); tid; own = c.(tid) }

(* {1 Checkpointing} *)

let write lines t =
  let push = Engine.Snapshot.push lines in
  let clock c = Vclock.to_string (Vclock.of_array c) in
  push ("vi " ^ String.concat " " (Array.to_list (Array.map clock t.vi)));
  let table key pick =
    Engine.Snapshot.push_counted lines key
      (Hashtbl.fold
         (fun x v acc -> if Array.length (pick v) = 0 then acc else (x, pick v) :: acc)
         t.vars []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))
      (fun (x, c) -> [ Printf.sprintf "kv %s %s" x (clock c) ])
  in
  table "va" (fun v -> v.va);
  table "vw" (fun v -> v.vw)

let read ~what r =
  let open Engine.Snapshot in
  let vi = Array.map (clock ~what) (fields ~what ~key:"vi" r) in
  let table key =
    counted ~what ~key r (fun () ->
        let f = fields ~what ~key:"kv" ~n:2 r in
        (f.(0), clock ~what f.(1)))
  in
  let va = table "va" in
  let vw = table "vw" in
  fun ~nthreads ->
    let check c =
      if Vclock.dim c <> nthreads then
        invalid_arg
          (Printf.sprintf "%s: %d-wide sync clock for %d threads" what (Vclock.dim c) nthreads);
      Vclock.to_array c
    in
    if Array.length vi <> nthreads then
      invalid_arg
        (Printf.sprintf "%s: %d thread clocks for %d threads" what (Array.length vi) nthreads);
    let t =
      { vi = Array.map check vi;
        base = Array.map check vi;
        stale = Array.make nthreads false;
        vars = Hashtbl.create 8 }
    in
    List.iter (fun (x, c) -> (var_clocks t x).va <- check c) va;
    List.iter (fun (x, c) -> (var_clocks t x).vw <- check c) vw;
    t

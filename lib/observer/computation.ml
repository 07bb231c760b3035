open Trace

type t = {
  nthreads : int;
  by_thread : Message.t array array;  (* [i].(k) is the (k+1)-th event of thread i *)
  init : Pastltl.State.t;
}

let group ~nthreads messages =
  let buckets = Array.make nthreads [] in
  List.iter
    (fun (m : Message.t) ->
      if m.tid < 0 || m.tid >= nthreads then
        invalid_arg "Computation: message thread id out of range";
      buckets.(m.tid) <- m :: buckets.(m.tid))
    messages;
  Array.map
    (fun ms ->
      Array.of_list (List.sort (fun a b -> compare (Message.seq a) (Message.seq b)) ms))
    buckets

let validate by_thread =
  let problem = ref None in
  Array.iteri
    (fun i ms ->
      Array.iteri
        (fun k m ->
          if Message.seq m <> k + 1 && !problem = None then
            problem :=
              Some
                (Printf.sprintf
                   "thread %d: expected relevant event #%d, got one with index %d" i
                   (k + 1) (Message.seq m)))
        ms)
    by_thread;
  !problem

let of_messages ~nthreads ~init messages =
  if nthreads <= 0 then invalid_arg "Computation: nthreads must be positive";
  let by_thread = group ~nthreads messages in
  match validate by_thread with
  | Some msg -> Error msg
  | None -> Ok { nthreads; by_thread; init = Pastltl.State.of_list init }

let of_messages_exn ~nthreads ~init messages =
  match of_messages ~nthreads ~init messages with
  | Ok c -> c
  | Error msg -> invalid_arg ("Computation.of_messages: " ^ msg)

let nthreads c = c.nthreads
let total c = Array.fold_left (fun n ms -> n + Array.length ms) 0 c.by_thread

let message c i k =
  if i < 0 || i >= c.nthreads then invalid_arg "Computation.message: bad thread";
  if k < 1 || k > Array.length c.by_thread.(i) then
    invalid_arg "Computation.message: index out of range";
  c.by_thread.(i).(k - 1)

let messages c =
  Array.to_list c.by_thread |> List.concat_map Array.to_list

let init_state c = c.init

let variables c =
  let module Sset = Set.Make (String) in
  let s =
    List.fold_left (fun s (x, _) -> Sset.add x s) Sset.empty
      (Pastltl.State.to_list c.init)
  in
  let s = List.fold_left (fun s (m : Message.t) -> Sset.add m.var s) s (messages c) in
  Sset.elements s

let precedes _c = Message.causally_precedes
let concurrent _c = Message.concurrent

let bottom c = Array.make c.nthreads 0
let top c = Array.map Array.length c.by_thread

let check_cut c cut =
  if Array.length cut <> c.nthreads then invalid_arg "Computation: cut of wrong dimension";
  Array.iteri
    (fun i k ->
      if k < 0 || k > Array.length c.by_thread.(i) then
        invalid_arg "Computation: cut count out of range")
    cut

let is_consistent c cut =
  check_cut c cut;
  (* Downward closure: for every included event, its MVC must lie within
     the cut. It suffices to check each thread's last included event. *)
  let ok = ref true in
  for i = 0 to c.nthreads - 1 do
    if cut.(i) > 0 then begin
      let m = c.by_thread.(i).(cut.(i) - 1) in
      for j = 0 to c.nthreads - 1 do
        if Vclock.get m.mvc j > cut.(j) then ok := false
      done
    end
  done;
  !ok

let enabled c cut =
  check_cut c cut;
  let out = ref [] in
  for i = c.nthreads - 1 downto 0 do
    if cut.(i) < Array.length c.by_thread.(i) then begin
      let m = c.by_thread.(i).(cut.(i)) in
      assert (Vclock.get m.mvc i = cut.(i) + 1);
      let fits = ref true in
      for j = 0 to c.nthreads - 1 do
        if j <> i && Vclock.get m.mvc j > cut.(j) then fits := false
      done;
      if !fits then out := (i, m) :: !out
    end
  done;
  !out

let apply state (m : Message.t) = Pastltl.State.set state m.var m.value

let state_of_cut c cut =
  check_cut c cut;
  (* Final value of x = write of x with the causally greatest MVC among
     the cut's events; writes of one variable are totally ordered. *)
  let latest = Hashtbl.create 8 in
  for i = 0 to c.nthreads - 1 do
    for k = 0 to cut.(i) - 1 do
      let m = c.by_thread.(i).(k) in
      match Hashtbl.find_opt latest m.Message.var with
      | None -> Hashtbl.replace latest m.Message.var m
      | Some current ->
          if Message.causally_precedes current m then Hashtbl.replace latest m.Message.var m
    done
  done;
  Hashtbl.fold (fun x (m : Message.t) st -> Pastltl.State.set st x m.value) latest c.init

let pp ppf c =
  Format.fprintf ppf "@[<v>computation (%d threads, %d relevant events)@," c.nthreads
    (total c);
  Array.iteri
    (fun i ms ->
      Format.fprintf ppf "  %a:" Types.pp_tid i;
      Array.iter (fun m -> Format.fprintf ppf " %a" Message.pp m) ms;
      Format.pp_print_cut ppf ())
    c.by_thread;
  Format.fprintf ppf "  init %a@]" Pastltl.State.pp c.init

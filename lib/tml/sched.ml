open Trace

type decision = Pick of Types.tid | Choice of int
type script = decision list

exception Replay_mismatch of string

type t = {
  name : string;
  pick_fn : Types.tid array -> int -> Types.tid;
  choose_fn : int -> int;
}

let name t = t.name

(* Binary search of the ascending [runnable.(lo .. hi - 1)]; a
   toplevel function, so a pick allocates no closure. *)
let rec mem_between (runnable : Types.tid array) (tid : Types.tid) lo hi =
  lo < hi
  &&
  let mid = (lo + hi) / 2 in
  let x = runnable.(mid) in
  x = tid || if x < tid then mem_between runnable tid (mid + 1) hi else mem_between runnable tid lo mid

let mem runnable count tid = mem_between runnable tid 0 count

let pick t ~runnable ~count =
  if count <= 0 then invalid_arg "Sched.pick: no runnable threads";
  let tid = t.pick_fn runnable count in
  assert (mem runnable count tid);
  tid

let choose t k =
  if k <= 0 then invalid_arg "Sched.choose: need at least one branch";
  let c = t.choose_fn k in
  assert (c >= 0 && c < k);
  c

let round_robin () =
  let last = ref (-1) in
  let pick_fn (runnable : Types.tid array) count =
    let i = ref 0 in
    while !i < count && runnable.(!i) <= !last do
      incr i
    done;
    let tid = if !i < count then runnable.(!i) else runnable.(0) in
    last := tid;
    tid
  in
  { name = "round-robin"; pick_fn; choose_fn = (fun _ -> 0) }

let random ~seed =
  let state = Random.State.make [| seed |] in
  let pick_fn runnable count = runnable.(Random.State.int state count) in
  let choose_fn k = Random.State.int state k in
  { name = Printf.sprintf "random(seed=%d)" seed; pick_fn; choose_fn }

let random_biased ~seed ~stickiness =
  if stickiness < 0 then invalid_arg "Sched.random_biased: negative stickiness";
  let state = Random.State.make [| seed; stickiness |] in
  let last = ref None in
  let pick_fn runnable count =
    let tid =
      match !last with
      | Some tid when mem runnable count tid && Random.State.int state (stickiness + 1) > 0 ->
          tid
      | _ -> runnable.(Random.State.int state count)
    in
    last := Some tid;
    tid
  in
  let choose_fn k = Random.State.int state k in
  { name = Printf.sprintf "random-biased(seed=%d,stickiness=%d)" seed stickiness;
    pick_fn; choose_fn }

let of_script script =
  let remaining = ref script in
  let next what =
    match !remaining with
    | [] -> raise (Replay_mismatch ("script exhausted, expected " ^ what))
    | d :: rest ->
        remaining := rest;
        d
  in
  let pick_fn runnable count =
    match next "a pick" with
    | Pick tid ->
        if mem runnable count tid then tid
        else
          raise
            (Replay_mismatch
               (Printf.sprintf "script picks T%d which is not runnable" tid))
    | Choice _ -> raise (Replay_mismatch "script has a choice where a pick is needed")
  in
  let choose_fn k =
    match next "a choice" with
    | Choice c ->
        if c >= 0 && c < k then c
        else raise (Replay_mismatch (Printf.sprintf "script choice %d out of %d" c k))
    | Pick _ -> raise (Replay_mismatch "script has a pick where a choice is needed")
  in
  { name = "script"; pick_fn; choose_fn }

let make_raw ~name ~pick_fn ~choose_fn = { name; pick_fn; choose_fn }

let recording inner =
  let recorded = ref [] in
  let pick_fn runnable count =
    let tid = inner.pick_fn runnable count in
    recorded := Pick tid :: !recorded;
    tid
  in
  let choose_fn k =
    let c = inner.choose_fn k in
    recorded := Choice c :: !recorded;
    c
  in
  ( { name = inner.name ^ "+rec"; pick_fn; choose_fn },
    fun () -> List.rev !recorded )

let pp_decision ppf = function
  | Pick tid -> Format.fprintf ppf "P%d" tid
  | Choice c -> Format.fprintf ppf "C%d" c

let pp_script ppf script =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ' ')
       pp_decision)
    script

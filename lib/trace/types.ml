type tid = int
type var = string
type value = int

let lock_prefix = "#lock:"
let notify_prefix = "#notify:"
let read_prefix = "#read:"
let lock_var l = lock_prefix ^ l
let notify_var c = notify_prefix ^ c
let read_var x = read_prefix ^ x

(* Allocation-free: the engines classify every delivered message. *)
let has_prefix ~prefix s =
  let n = String.length prefix in
  String.length s >= n
  &&
  let i = ref 0 in
  while !i < n && String.unsafe_get s !i = String.unsafe_get prefix !i do
    incr i
  done;
  !i = n

let strip ~prefix x =
  if has_prefix ~prefix x then
    Some (String.sub x (String.length prefix) (String.length x - String.length prefix))
  else None

let as_read x = strip ~prefix:read_prefix x

let as_lock x =
  if String.length x > String.length lock_prefix then strip ~prefix:lock_prefix x else None

let is_sync_var x = has_prefix ~prefix:lock_prefix x || has_prefix ~prefix:notify_prefix x
let is_data_var x = not (is_sync_var x)
let pp_tid ppf i = Format.fprintf ppf "T%d" i
let pp_var = Format.pp_print_string

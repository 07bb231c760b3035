type kind =
  | Internal
  | Read of Types.var * Types.value
  | Write of Types.var * Types.value

type t = { eid : int; tid : Types.tid; pos : int; kind : kind }

let make ~eid ~tid ~pos kind =
  assert (eid >= 0 && tid >= 0 && pos >= 1);
  { eid; tid; pos; kind }

let internal ~eid ~tid ~pos = make ~eid ~tid ~pos Internal
let read ~eid ~tid ~pos ~var ~value = make ~eid ~tid ~pos (Read (var, value))
let write ~eid ~tid ~pos ~var ~value = make ~eid ~tid ~pos (Write (var, value))

let variable e =
  match e.kind with Internal -> None | Read (x, _) | Write (x, _) -> Some x

let is_read e = match e.kind with Read _ -> true | Write _ | Internal -> false
let is_write e = match e.kind with Write _ -> true | Read _ | Internal -> false
let accesses e x = match variable e with Some y -> String.equal x y | None -> false
let writes e x = match e.kind with Write (y, _) -> String.equal x y | Read _ | Internal -> false
let equal a b = a = b
let compare = Stdlib.compare

let pp_kind ppf = function
  | Internal -> Format.pp_print_string ppf "internal"
  | Read (x, v) -> Format.fprintf ppf "read %a=%d" Types.pp_var x v
  | Write (x, v) -> Format.fprintf ppf "write %a=%d" Types.pp_var x v

let pp ppf e =
  Format.fprintf ppf "e%d[%a#%d %a]" e.eid Types.pp_tid e.tid e.pos pp_kind e.kind

open Trace

module Smap = Map.Make (String)

type t = Types.value Smap.t

let empty = Smap.empty
let of_list l = List.fold_left (fun m (x, v) -> Smap.add x v m) Smap.empty l
let to_list m = Smap.bindings m
let get m x = match Smap.find x m with v -> v | exception Not_found -> 0
let set m x v = Smap.add x v m
let equal = Smap.equal Int.equal
let compare = Smap.compare Int.compare
let hash m = Hashtbl.hash (to_list m)

let pp ppf m =
  Format.fprintf ppf "<%a>"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (x, v) -> Format.fprintf ppf "%s=%d" x v))
    (to_list m)

let pp_values ~vars ppf m =
  Format.fprintf ppf "<%a>"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       (fun ppf x -> Format.pp_print_int ppf (get m x)))
    vars

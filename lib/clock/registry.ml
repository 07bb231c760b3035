(* Clock backends by name, kept only for the benchmark ledger's
   per-backend Algorithm A probe (bench/ledger/probes.ml), which hands
   [get]'s result to [Mvc.Emitter.create ~clock].  Algorithm A runs on
   dense vector clocks alone, so dense is the one backend; this module
   goes when the ledger retires that probe. *)

type backend = Dense

let default = Dense
let default_name = "dense"
let names () = [ default_name ]

let get name =
  if name = default_name then default
  else invalid_arg (Printf.sprintf "Registry.get: unknown clock backend %S (known: dense)" name)

open Trace

type pid =
  | Thread of Types.tid
  | Access of Types.var
  | Writer of Types.var

type t = { pid : pid; mutable vc : Vclock.t }

let create pid ~dim = { pid; vc = Vclock.zero dim }
let pid t = t.pid
let clock t = t.vc
let merge t v = t.vc <- Vclock.max t.vc v

let bump t i =
  match t.pid with
  | Thread j when j = i -> t.vc <- Vclock.inc t.vc i
  | Thread _ | Access _ | Writer _ ->
      invalid_arg "Process.bump: only a thread bumps its own component"


open Trace

type t =
  | Writes_of of Types.var list
  | All_writes
  | All_events
  | Nothing
  | Custom of (Event.kind -> bool)

let writes_of_vars vars = Writes_of (List.sort_uniq String.compare vars)
let all_writes = All_writes
let all_events = All_events
let nothing = Nothing
let custom f = Custom f

let is_relevant t (kind : Event.kind) =
  match (t, kind) with
  | Nothing, _ -> false
  | Custom f, k -> f k
  | Writes_of vars, Write (x, _) -> List.exists (String.equal x) vars
  | Writes_of _, (Read _ | Internal) -> false
  | All_writes, Write (x, _) -> Types.is_data_var x
  | All_writes, (Read _ | Internal) -> false
  | All_events, (Write _ | Read _) -> true
  | All_events, Internal -> false

let per_variable = function
  | Custom _ -> false
  | Writes_of _ | All_writes | All_events | Nothing -> true

let variables = function
  | Writes_of vars -> Some vars
  | All_writes | All_events | Nothing | Custom _ -> None

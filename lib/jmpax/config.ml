type channel_model =
  | In_order
  | Shuffled of int
  | Bounded of int * int

type recovery =
  | Fail
  | Skip
  | Quarantine

type t = {
  sched : Tml.Sched.t;
  fuel : int;
  channel : channel_model;
  clock : Clock.Spec.backend;
  detect_races : bool;
  detect_deadlocks : bool;
  detect_atomicity : bool;
  metrics : string option;
  trace : string option;
  max_buffered : int option;
  on_decode_error : recovery;
  checkpoint : (string * int) option;
  reconnect : Transport.backoff option;
  engines : Predict.Engine.kind list;
  budget : Budget.limits;
  on_overload : Budget.policy;
}

let default () =
  { sched = Tml.Sched.round_robin ();
    fuel = 100_000;
    channel = In_order;
    clock = Clock.Registry.default;
    detect_races = true;
    detect_deadlocks = true;
    detect_atomicity = true;
    metrics = None;
    trace = None;
    max_buffered = None;
    on_decode_error = Fail;
    checkpoint = None;
    reconnect = None;
    engines = Predict.Engine.default_kinds;
    budget = Budget.unlimited;
    on_overload = Budget.Fail }

let with_sched sched t = { t with sched }
let with_seed seed t = { t with sched = Tml.Sched.random ~seed }
let with_channel channel t = { t with channel }
let with_clock clock t = { t with clock }

let with_metrics metrics t = { t with metrics }
let with_trace trace t = { t with trace }

let with_max_buffered max_buffered t =
  (match max_buffered with
  | Some k when k < 0 -> invalid_arg "Config.with_max_buffered: must be >= 0"
  | _ -> ());
  { t with max_buffered }

let with_on_decode_error on_decode_error t = { t with on_decode_error }

let with_checkpoint checkpoint t =
  (match checkpoint with
  | Some (_, every) when every < 1 ->
      invalid_arg "Config.with_checkpoint: interval must be >= 1"
  | _ -> ());
  { t with checkpoint }

let with_reconnect reconnect t = { t with reconnect }

let with_engines engines t =
  if engines = [] then invalid_arg "Config.with_engines: no engine selected";
  { t with engines }

let with_engine_names names t =
  match Predict.Engine.kinds_of_string names with
  | Ok engines -> { t with engines }
  | Error msg -> invalid_arg ("Config.with_engine_names: " ^ msg)

let with_budget budget t = { t with budget }
let with_on_overload on_overload t = { t with on_overload }

let recovery_of_string = function
  | "fail" -> Some Fail
  | "skip" -> Some Skip
  | "quarantine" -> Some Quarantine
  | _ -> None

let recovery_to_string = function
  | Fail -> "fail"
  | Skip -> "skip"
  | Quarantine -> "quarantine"

let with_clock_name name t =
  match Clock.Registry.find name with
  | Some clock -> { t with clock }
  | None ->
      invalid_arg
        (Printf.sprintf "Config.with_clock_name: unknown clock backend %S (known: %s)" name
           (String.concat ", " (Clock.Registry.names ())))

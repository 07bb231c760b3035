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
  metrics : string option;
  trace : string option;
  engines : Predict.Engine.kind list;
}

let default () =
  { sched = Tml.Sched.round_robin ();
    fuel = 100_000;
    channel = In_order;
    metrics = None;
    trace = None;
    engines = Predict.Engine.default_kinds }

let with_sched sched t = { t with sched }
let with_seed seed t = { t with sched = Tml.Sched.random ~seed }
let with_channel channel t = { t with channel }

let with_metrics metrics t = { t with metrics }
let with_trace trace t = { t with trace }

let with_engine_names names t =
  match Predict.Engine.kinds_of_string names with
  | Ok engines -> { t with engines }
  | Error msg -> invalid_arg ("Config.with_engine_names: " ^ msg)

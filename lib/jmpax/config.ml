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


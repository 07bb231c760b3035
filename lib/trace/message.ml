type t = {
  eid : int;
  tid : Types.tid;
  var : Types.var;
  value : Types.value;
  mvc : Vclock.t;
}

let make ~eid ~tid ~var ~value ~mvc =
  assert (Vclock.get mvc tid >= 1);
  { eid; tid; var; value; mvc }

let seq m = Vclock.get m.mvc m.tid
let none = make ~eid:(-1) ~tid:0 ~var:"" ~value:0 ~mvc:(Vclock.of_list [ 1 ])
let equal a b = a.eid = b.eid && a.tid = b.tid && Vclock.equal a.mvc b.mvc
let compare a b = Stdlib.compare (a.eid, a.tid, a.var, a.value) (b.eid, b.tid, b.var, b.value)

let causally_precedes m m' =
  (not (equal m m')) && Vclock.get m.mvc m.tid <= Vclock.get m'.mvc m.tid

let concurrent m m' = (not (causally_precedes m m')) && not (causally_precedes m' m)

let pp ppf m =
  Format.fprintf ppf "<%a=%d, %a, %a>" Types.pp_var m.var m.value Types.pp_tid m.tid
    Vclock.pp m.mvc

open Trace

let identity ms = ms

let shuffle ~seed ms =
  let state = Random.State.make [| seed |] in
  let a = Array.of_list ms in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int state (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

let bounded_reorder ~seed ~window ms =
  if window < 1 then invalid_arg "Channel.bounded_reorder: window must be >= 1";
  let state = Random.State.make [| seed; window |] in
  let rec drain pending delivered =
    match pending with
    | [] -> List.rev delivered
    | _ ->
        let k = min window (List.length pending) in
        let pick = Random.State.int state k in
        let chosen = List.nth pending pick in
        let rest = List.filteri (fun i _ -> i <> pick) pending in
        drain rest (chosen :: delivered)
  in
  drain ms []

let is_plausible_delivery ~original delivered =
  let per_thread ms tid =
    List.filter (fun (m : Message.t) -> m.tid = tid) ms
  in
  let tids =
    List.sort_uniq compare (List.map (fun (m : Message.t) -> m.tid) original)
  in
  List.length original = List.length delivered
  && List.for_all
       (fun tid ->
         List.equal Message.equal (per_thread original tid) (per_thread delivered tid))
       tids

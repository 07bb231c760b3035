let eval formula trace =
  let n = Array.length trace in
  if n = 0 then invalid_arg "Semantics.eval: empty trace";
  let rec table f =
    match f with
    | Formula.True -> Array.make n true
    | Formula.False -> Array.make n false
    | Formula.Atom p -> Array.map (Predicate.holds p) trace
    | Formula.Not g -> Array.map not (table g)
    | Formula.And (g, h) -> Array.map2 ( && ) (table g) (table h)
    | Formula.Or (g, h) -> Array.map2 ( || ) (table g) (table h)
    | Formula.Implies (g, h) -> Array.map2 (fun a b -> (not a) || b) (table g) (table h)
    | Formula.Prev g ->
        let tg = table g in
        Array.init n (fun t -> if t = 0 then tg.(0) else tg.(t - 1))
    | Formula.Once g ->
        let tg = table g in
        let out = Array.make n false in
        Array.iteri (fun t v -> out.(t) <- v || (t > 0 && out.(t - 1))) tg;
        out
    | Formula.Historically g ->
        let tg = table g in
        let out = Array.make n false in
        Array.iteri (fun t v -> out.(t) <- v && (t = 0 || out.(t - 1))) tg;
        out
    | Formula.Since (g, h) ->
        let tg = table g and th = table h in
        let out = Array.make n false in
        for t = 0 to n - 1 do
          out.(t) <- th.(t) || (t > 0 && tg.(t) && out.(t - 1))
        done;
        out
    | Formula.Interval (g, h) ->
        let tg = table g and th = table h in
        let out = Array.make n false in
        for t = 0 to n - 1 do
          out.(t) <- (not th.(t)) && (tg.(t) || (t > 0 && out.(t - 1)))
        done;
        out
    | Formula.Start g ->
        let tg = table g in
        Array.init n (fun t -> if t = 0 then false else tg.(t) && not tg.(t - 1))
    | Formula.End g ->
        let tg = table g in
        Array.init n (fun t -> if t = 0 then false else (not tg.(t)) && tg.(t - 1))
  in
  table formula

let first_violation f states =
  match states with
  | [] -> None
  | _ ->
      let values = eval f (Array.of_list states) in
      let rec find t = if t >= Array.length values then None
        else if not values.(t) then Some t else find (t + 1)
      in
      find 0

(* The [race 1] / [atomicity 1] checkpoint blocks written before the
   race and atomicity engines shared one front end, rebuilt from a
   [linear 1] block of the same state: each legacy block carried its own
   copy of the front-end lines (sync clocks, delivery buffer), and its
   core's counts ahead of the event counters on its [counts] line. *)

let starts_with prefix l = String.starts_with ~prefix l

let rec split_at stop = function
  | l :: rest when not (stop l) ->
      let a, b = split_at stop rest in
      (l :: a, b)
  | rest -> ([], rest)

let after prefix l = String.sub l (String.length prefix) (String.length l - String.length prefix)

let of_linear = function
  | "linear 1" :: rest -> (
      let front, rest = split_at (starts_with "counts ") rest in
      match rest with
      | counts :: sections ->
          let race, atomicity = split_at (starts_with "atomicity-core ") sections in
          let block name = function
            | head :: core ->
                [ ( name,
                    ((name ^ " 1") :: front)
                    @ (Printf.sprintf "counts %s %s" (after (name ^ "-core ") head)
                         (after "counts " counts)
                      :: core) ) ]
            | [] -> []
          in
          block "race" race @ block "atomicity" atomicity
      | [] -> invalid_arg "Legacy_blocks.of_linear: no counts line")
  | _ -> invalid_arg "Legacy_blocks.of_linear: not a linear 1 block"

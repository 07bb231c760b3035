(* Tests for the frontier engine: the packed interned-cut table
   (differentially against a plain (int list, int) Hashtbl) and the
   level expansion, checked against the closed form of a grid lattice. *)

module Cutset = Observer.Frontier.Cutset

(* {1 Cutset} *)

let test_cutset_basics () =
  let t = Cutset.create ~width:3 () in
  Alcotest.(check int) "empty" 0 (Cutset.count t);
  let a = Cutset.intern t [| 0; 0; 0 |] in
  let b = Cutset.intern t [| 1; 0; 2 |] in
  Alcotest.(check int) "first id" 0 a;
  Alcotest.(check int) "second id" 1 b;
  Alcotest.(check int) "re-intern dedups" a (Cutset.intern t [| 0; 0; 0 |]);
  Alcotest.(check int) "count" 2 (Cutset.count t);
  Alcotest.(check (option int)) "find present" (Some b) (Cutset.find t [| 1; 0; 2 |]);
  Alcotest.(check (option int)) "find absent" None (Cutset.find t [| 9; 9; 9 |]);
  Alcotest.(check (array int)) "to_array roundtrip" [| 1; 0; 2 |] (Cutset.to_array t b);
  Alcotest.(check int) "get" 2 (Cutset.get t b 2);
  let buf = Array.make 3 (-1) in
  Cutset.blit t a buf;
  Alcotest.(check (array int)) "blit" [| 0; 0; 0 |] buf;
  (match Cutset.intern t [| 1; 2 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wrong width accepted");
  Alcotest.(check bool) "compare_ids orders lexicographically" true
    (Cutset.compare_ids t a b < 0)

let test_cutset_succ_and_from () =
  let src = Cutset.create ~width:2 () in
  let s = Cutset.intern src [| 3; 1 |] in
  let dst = Cutset.create ~width:2 () in
  let d = Cutset.intern_succ dst ~src ~src_id:s ~tid:1 in
  Alcotest.(check (array int)) "successor bumps tid" [| 3; 2 |] (Cutset.to_array dst d);
  Alcotest.(check int) "succ dedups" d (Cutset.intern_succ dst ~src ~src_id:s ~tid:1);
  Alcotest.(check int) "source untouched" 1 (Cutset.count src);
  Alcotest.(check (array int)) "source cut unchanged" [| 3; 1 |] (Cutset.to_array src s)

let test_cutset_growth () =
  (* Push the table through several arena and slot growths. *)
  let t = Cutset.create ~capacity:2 ~width:4 () in
  let n = 5000 in
  for i = 0 to n - 1 do
    let id = Cutset.intern t [| i land 7; i lsr 3; i * 17; -i |] in
    Alcotest.(check int) "dense ids in intern order" i id
  done;
  Alcotest.(check int) "all distinct" n (Cutset.count t);
  for i = 0 to n - 1 do
    Alcotest.(check (option int)) "still findable" (Some i)
      (Cutset.find t [| i land 7; i lsr 3; i * 17; -i |])
  done;
  Alcotest.(check bool) "mem_words sane" true (Cutset.mem_words t > 4 * n)

let gen_cuts =
  QCheck.Gen.(list_size (int_range 1 200) (array_size (return 3) (int_bound 5)))

let arb_cuts =
  QCheck.make
    ~print:(fun cuts ->
      String.concat ";"
        (List.map
           (fun c ->
             Printf.sprintf "(%s)"
               (String.concat "," (List.map string_of_int (Array.to_list c))))
           cuts))
    gen_cuts

(* The packed table must agree, id for id, with the seed's list-keyed
   Hashtbl under the same first-seen numbering. *)
let qcheck_cutset_vs_hashtbl =
  QCheck.Test.make ~name:"cutset == (int list, int) Hashtbl reference" ~count:200
    arb_cuts (fun cuts ->
      let t = Cutset.create ~width:3 () in
      let reference : (int list, int) Hashtbl.t = Hashtbl.create 16 in
      List.for_all
        (fun cut ->
          let key = Array.to_list cut in
          let expected =
            match Hashtbl.find_opt reference key with
            | Some id -> id
            | None ->
                let id = Hashtbl.length reference in
                Hashtbl.replace reference key id;
                id
          in
          Cutset.intern t cut = expected
          && Cutset.find t cut = Some expected
          && Array.to_list (Cutset.to_array t expected) = key)
        cuts
      && Cutset.count t = Hashtbl.length reference)

(* {1 Level expansion on a synthetic lattice} *)

(* Payload: sorted list of source tags; merge is list merge, so every
   cut ends up carrying the tags of all its predecessors. *)
module E = Observer.Frontier.Make (struct
  type t = int list

  let merge = List.merge compare
end)

(* A synthetic grid walk: from cut c, each component below [limit] can
   step; the move is tagged with the flattened source cut. *)
let grid_moves ~width ~limit cut =
  let tag = Array.fold_left (fun acc v -> (acc * (limit + 1)) + v) 0 cut in
  List.init width (fun tid -> (tid, tag))
  |> List.filter (fun (tid, _) -> cut.(tid) < limit)

let run_grid ~width ~limit =
  let frontier = ref (E.singleton ~width (Array.make width 0) [ 0 ]) in
  let trace = ref [] in
  let running = ref true in
  while !running do
    let level =
      E.fold (fun acc cut payload -> (Array.to_list cut, payload) :: acc) [] !frontier
    in
    trace := List.rev level :: !trace;
    let next =
      E.expand
        ~moves:(fun cut -> grid_moves ~width ~limit cut)
        ~transition:(fun _payload ~tid:_ tag -> [ tag ])
        !frontier
    in
    if E.size next = 0 then running := false else frontier := next
  done;
  List.rev !trace

(* The (limit+1)^width grid, level by level: level [l] holds exactly the
   cuts with components in [0, limit] summing to [l], in lexicographic
   order, and each carries the tags of its in-grid predecessors. *)
let test_engine_grid_levels () =
  let width = 3 and limit = 2 in
  let rec cuts w =
    if w = 0 then [ [] ]
    else
      List.concat_map
        (fun v -> List.map (fun c -> v :: c) (cuts (w - 1)))
        (List.init (limit + 1) Fun.id)
  in
  let tag cut = List.fold_left (fun acc v -> (acc * (limit + 1)) + v) 0 cut in
  let preds cut =
    List.concat
      (List.mapi
         (fun i v ->
           if v = 0 then [] else [ tag (List.mapi (fun j x -> if j = i then x - 1 else x) cut) ])
         cut)
  in
  let expected =
    List.init ((width * limit) + 1) (fun l ->
        List.filter (fun c -> List.fold_left ( + ) 0 c = l) (cuts width)
        |> List.sort compare
        |> List.map (fun c -> (c, if l = 0 then [ 0 ] else List.sort compare (preds c))))
  in
  Alcotest.(check (list int)) "level sizes" [ 1; 3; 6; 7; 6; 3; 1 ]
    (List.map List.length (run_grid ~width ~limit));
  Alcotest.(check bool) "cuts and merged payloads" true
    (run_grid ~width ~limit = expected)

let test_engine_canonical_order_and_min () =
  let f = E.singleton ~width:2 [| 0; 0 |] [ 0 ] in
  let f =
    E.expand
      ~moves:(fun c -> grid_moves ~width:2 ~limit:3 c)
      ~transition:(fun _ ~tid:_ tag -> [ tag ])
      f
  in
  (* level 1 of the 2-d grid: (0,1) then (1,0) in lexicographic order *)
  let cuts = E.fold (fun acc cut _ -> Array.to_list cut :: acc) [] f |> List.rev in
  Alcotest.(check bool) "lexicographic iteration" true
    (cuts = [ [ 0; 1 ]; [ 1; 0 ] ]);
  Alcotest.(check (array int)) "min_components" [| 0; 0 |] (E.min_components f);
  Alcotest.(check int) "size" 2 (E.size f);
  Alcotest.(check bool) "find hits" true (E.find f [| 1; 0 |] <> None);
  Alcotest.(check bool) "find misses" true (E.find f [| 1; 1 |] = None)

let () =
  Alcotest.run "frontier"
    [ ( "cutset",
        [ Alcotest.test_case "basics" `Quick test_cutset_basics;
          Alcotest.test_case "succ and from" `Quick test_cutset_succ_and_from;
          Alcotest.test_case "growth" `Quick test_cutset_growth;
          QCheck_alcotest.to_alcotest qcheck_cutset_vs_hashtbl ] );
      ( "engine",
        [ Alcotest.test_case "grid levels" `Quick test_engine_grid_levels;
          Alcotest.test_case "canonical order + min" `Quick
            test_engine_canonical_order_and_min ] ) ]

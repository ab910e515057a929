(* Tests for Dice_inet.Prefix_trie, including a model-based qcheck suite
   comparing against a naive association list. *)
open Dice_inet
module T = Prefix_trie

let p = Prefix.of_string

let of_pairs l = T.of_list (List.map (fun (s, v) -> (p s, v)) l)

let test_empty () =
  Alcotest.(check bool) "is_empty" true (T.is_empty T.empty);
  Alcotest.(check int) "cardinal" 0 (T.cardinal T.empty);
  Alcotest.(check bool) "find" true (T.find_opt (p "10.0.0.0/8") T.empty = None);
  Alcotest.(check bool) "lpm" true (T.longest_match 0 T.empty = None)

let test_add_find () =
  let t = of_pairs [ ("10.0.0.0/8", 1); ("10.0.0.0/16", 2); ("192.168.0.0/16", 3) ] in
  Alcotest.(check (option int)) "/8" (Some 1) (T.find_opt (p "10.0.0.0/8") t);
  Alcotest.(check (option int)) "/16" (Some 2) (T.find_opt (p "10.0.0.0/16") t);
  Alcotest.(check (option int)) "other" (Some 3) (T.find_opt (p "192.168.0.0/16") t);
  Alcotest.(check (option int)) "absent" None (T.find_opt (p "10.0.0.0/24") t);
  Alcotest.(check int) "cardinal" 3 (T.cardinal t)

let test_replace () =
  let t = T.add (p "10.0.0.0/8") 2 (of_pairs [ ("10.0.0.0/8", 1) ]) in
  Alcotest.(check (option int)) "replaced" (Some 2) (T.find_opt (p "10.0.0.0/8") t);
  Alcotest.(check int) "no duplicate" 1 (T.cardinal t)

let test_default_route () =
  let t = of_pairs [ ("0.0.0.0/0", 99); ("10.0.0.0/8", 1) ] in
  Alcotest.(check (option int)) "default" (Some 99) (T.find_opt Prefix.default t);
  match T.longest_match (Ipv4.of_string "200.0.0.1") t with
  | Some (q, 99) -> Alcotest.(check string) "lpm default" "0.0.0.0/0" (Prefix.to_string q)
  | _ -> Alcotest.fail "expected default route"

let test_remove () =
  let t = of_pairs [ ("10.0.0.0/8", 1); ("10.0.0.0/16", 2) ] in
  let t = T.remove (p "10.0.0.0/8") t in
  Alcotest.(check (option int)) "removed" None (T.find_opt (p "10.0.0.0/8") t);
  Alcotest.(check (option int)) "sibling stays" (Some 2) (T.find_opt (p "10.0.0.0/16") t);
  Alcotest.(check int) "cardinal" 1 (T.cardinal t)

let test_remove_absent () =
  let t = of_pairs [ ("10.0.0.0/8", 1) ] in
  let t' = T.remove (p "11.0.0.0/8") t in
  Alcotest.(check int) "unchanged" 1 (T.cardinal t')

let test_longest_match () =
  let t = of_pairs [ ("10.0.0.0/8", 1); ("10.1.0.0/16", 2); ("10.1.2.0/24", 3) ] in
  let lpm a =
    match T.longest_match (Ipv4.of_string a) t with
    | Some (_, v) -> Some v
    | None -> None
  in
  Alcotest.(check (option int)) "deepest" (Some 3) (lpm "10.1.2.200");
  Alcotest.(check (option int)) "mid" (Some 2) (lpm "10.1.3.1");
  Alcotest.(check (option int)) "top" (Some 1) (lpm "10.200.0.1");
  Alcotest.(check (option int)) "miss" None (lpm "11.0.0.1")

let test_covering () =
  let t = of_pairs [ ("10.0.0.0/8", 1); ("10.1.0.0/16", 2); ("10.1.2.0/24", 3) ] in
  let names q = List.map (fun (x, _) -> Prefix.to_string x) (T.covering (p q) t) in
  Alcotest.(check (list string)) "all covering incl exact"
    [ "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24" ]
    (names "10.1.2.0/24");
  Alcotest.(check (list string)) "covering of a /25"
    [ "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24" ]
    (names "10.1.2.0/25");
  Alcotest.(check (list string)) "sibling /24 not covering" [ "10.0.0.0/8"; "10.1.0.0/16" ]
    (names "10.1.3.0/24");
  Alcotest.(check (list string)) "none" [] (names "11.0.0.0/24")

let test_covered () =
  let t = of_pairs [ ("10.0.0.0/8", 1); ("10.1.0.0/16", 2); ("10.1.2.0/24", 3); ("11.0.0.0/8", 4) ] in
  let names q = List.map (fun (x, _) -> Prefix.to_string x) (T.covered (p q) t) in
  Alcotest.(check (list string)) "subtree" [ "10.1.0.0/16"; "10.1.2.0/24" ] (names "10.1.0.0/16");
  Alcotest.(check (list string)) "all under /8"
    [ "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24" ]
    (names "10.0.0.0/8");
  Alcotest.(check (list string)) "none" [] (names "12.0.0.0/8")

let test_to_list_sorted () =
  let t = of_pairs [ ("192.168.0.0/16", 1); ("10.0.0.0/8", 2); ("10.0.0.0/16", 3) ] in
  Alcotest.(check (list string)) "prefix order"
    [ "10.0.0.0/8"; "10.0.0.0/16"; "192.168.0.0/16" ]
    (List.map (fun (x, _) -> Prefix.to_string x) (T.to_list t))

let test_update () =
  let t = of_pairs [ ("10.0.0.0/8", 1) ] in
  let t = T.update (p "10.0.0.0/8") (fun v -> Option.map (( + ) 10) v) t in
  Alcotest.(check (option int)) "updated" (Some 11) (T.find_opt (p "10.0.0.0/8") t);
  let t = T.update (p "10.0.0.0/8") (fun _ -> None) t in
  Alcotest.(check bool) "deleted" true (T.is_empty t);
  let t = T.update (p "1.0.0.0/8") (fun _ -> Some 5) t in
  Alcotest.(check (option int)) "inserted" (Some 5) (T.find_opt (p "1.0.0.0/8") t)

let test_map_filter () =
  let t = of_pairs [ ("10.0.0.0/8", 1); ("11.0.0.0/8", 2) ] in
  let doubled = T.map (( * ) 2) t in
  Alcotest.(check (option int)) "mapped" (Some 4) (T.find_opt (p "11.0.0.0/8") doubled);
  let odd = T.filter (fun _ v -> v mod 2 = 1) t in
  Alcotest.(check int) "filtered" 1 (T.cardinal odd)

let test_equal () =
  let a = of_pairs [ ("10.0.0.0/8", 1); ("11.0.0.0/8", 2) ] in
  let b = of_pairs [ ("11.0.0.0/8", 2); ("10.0.0.0/8", 1) ] in
  Alcotest.(check bool) "insertion-order independent" true (T.equal Int.equal a b);
  Alcotest.(check bool) "value-sensitive" false
    (T.equal Int.equal a (T.add (p "10.0.0.0/8") 9 b))

let test_descent_reaches_bound_nodes () =
  let t = of_pairs [ ("10.0.0.0/8", 1); ("10.1.0.0/16", 2); ("10.1.2.0/24", 3) ] in
  let visited = T.descent (Ipv4.of_string "10.1.2.7") t in
  let bound = List.filter snd visited |> List.map (fun (q, _) -> Prefix.to_string q) in
  Alcotest.(check (list string)) "all containing bound nodes visited"
    [ "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24" ]
    bound

let test_descent_stops_at_mismatch () =
  let t = of_pairs [ ("10.0.0.0/8", 1) ] in
  let visited = T.descent (Ipv4.of_string "11.0.0.0") t in
  (* root node 10/8 does not contain the address; it is still reported *)
  Alcotest.(check int) "visits the mismatching node" 1 (List.length visited)

(* ---- model-based property tests ---- *)

let arb_op =
  let open QCheck in
  let arb_prefix =
    map
      (fun (a, l) -> Prefix.make (a land 0xFFFFFFFF) l)
      (pair (int_bound 0xFFFFFF) (int_bound 32))
  in
  let arb_addr = map (fun a -> a land 0xFFFFFFFF) (int_bound 0xFFFFFF) in
  oneof
    [ map (fun (pfx, v) -> `Add (pfx, v)) (pair arb_prefix small_int);
      map (fun pfx -> `Remove pfx) arb_prefix;
      map (fun pfx -> `Find pfx) arb_prefix;
      map (fun a -> `Lpm a) arb_addr
    ]

(* reference model: association list keyed by prefix *)
let model_add pfx v m = (pfx, v) :: List.remove_assoc pfx m
let model_remove pfx m = List.remove_assoc pfx m
let model_find pfx m = List.assoc_opt pfx m

let model_lpm a m =
  List.fold_left
    (fun acc (pfx, v) ->
      if Prefix.contains pfx a then begin
        match acc with
        | Some (q, _) when Prefix.len q >= Prefix.len pfx -> acc
        | Some _ | None -> Some (pfx, v)
      end
      else acc)
    None m

let prop_model =
  QCheck.Test.make ~name:"trie agrees with assoc-list model" ~count:300
    (QCheck.list_of_size (QCheck.Gen.int_range 0 60) arb_op)
    (fun ops ->
      let trie = ref T.empty and model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | `Add (pfx, v) ->
            trie := T.add pfx v !trie;
            model := model_add pfx v !model;
            T.cardinal !trie = List.length !model
          | `Remove pfx ->
            trie := T.remove pfx !trie;
            model := model_remove pfx !model;
            T.cardinal !trie = List.length !model
          | `Find pfx -> T.find_opt pfx !trie = model_find pfx !model
          | `Lpm a -> begin
            match (T.longest_match a !trie, model_lpm a !model) with
            | None, None -> true
            | Some (q1, v1), Some (q2, v2) -> Prefix.equal q1 q2 && v1 = v2
            | Some _, None | None, Some _ -> false
          end)
        ops)

let prop_to_list_sorted =
  QCheck.Test.make ~name:"to_list is sorted and duplicate-free" ~count:200
    (QCheck.list_of_size
       (QCheck.Gen.int_range 0 40)
       (QCheck.map
          (fun (a, l) -> (Prefix.make (a land 0xFFFFFFFF) l, a))
          (QCheck.pair (QCheck.int_bound 0xFFFFFF) (QCheck.int_bound 32))))
    (fun pairs ->
      let t = T.of_list pairs in
      let keys = List.map fst (T.to_list t) in
      let rec sorted = function
        | a :: (b :: _ as rest) -> Prefix.compare a b < 0 && sorted rest
        | [ _ ] | [] -> true
      in
      sorted keys)

let prop_covering_covered_dual =
  QCheck.Test.make ~name:"covering/covered agree with subsumes" ~count:200
    (QCheck.pair
       (QCheck.list_of_size
          (QCheck.Gen.int_range 0 30)
          (QCheck.map
             (fun (a, l) -> (Prefix.make (a land 0xFFFFFFFF) l, 0))
             (QCheck.pair (QCheck.int_bound 0xFFFFFF) (QCheck.int_bound 32))))
       (QCheck.map
          (fun (a, l) -> Prefix.make (a land 0xFFFFFFFF) l)
          (QCheck.pair (QCheck.int_bound 0xFFFFFF) (QCheck.int_bound 32))))
    (fun (pairs, q) ->
      let t = T.of_list pairs in
      let covering = List.map fst (T.covering q t) in
      let covered = List.map fst (T.covered q t) in
      let all = List.map fst (T.to_list t) in
      let expect_covering = List.filter (fun x -> Prefix.subsumes x q) all in
      let expect_covered = List.filter (fun x -> Prefix.subsumes q x) all in
      List.sort Prefix.compare covering = List.sort Prefix.compare expect_covering
      && List.sort Prefix.compare covered = List.sort Prefix.compare expect_covered)

let prop_fold_diff =
  (* prefixes from a narrow space nest and fork often; [b] is [a] after
     a few writes (sharing most of it) or, half the time, rebuilt from
     its bindings (sharing nothing) *)
  let arb_prefix =
    QCheck.map
      (fun (a, l) -> Prefix.make ((a lsl 24) land 0xFFFFFFFF) l)
      (QCheck.pair (QCheck.int_bound 0xFF) (QCheck.int_bound 10))
  in
  let arb_write =
    QCheck.oneof
      [ QCheck.map (fun (p, v) -> `Add (p, v)) (QCheck.pair arb_prefix QCheck.small_int);
        QCheck.map (fun p -> `Remove p) arb_prefix ]
  in
  QCheck.Test.make ~name:"fold_diff agrees with the bindings' difference" ~count:300
    QCheck.(
      triple
        (list_of_size (Gen.int_range 0 40) (pair arb_prefix small_int))
        (list_of_size (Gen.int_range 0 8) arb_write)
        bool)
    (fun (pairs, writes, rebuild) ->
      let a = T.of_list pairs in
      let b =
        List.fold_left
          (fun t w -> match w with `Add (p, v) -> T.add p v t | `Remove p -> T.remove p t)
          a writes
      in
      let b = if rebuild then T.of_list (T.to_list b) else b in
      let got =
        T.fold_diff (fun p before after acc -> (p, before, after) :: acc) a b []
        |> List.sort compare
      in
      let keys = List.sort_uniq Prefix.compare (List.map fst (T.to_list a @ T.to_list b)) in
      let want =
        List.filter_map
          (fun p ->
            let before = T.find_opt p a and after = T.find_opt p b in
            if before = after then None else Some (p, before, after))
          keys
        |> List.sort compare
      in
      got = want)

let suite =
  [ ("empty", `Quick, test_empty);
    ("add/find", `Quick, test_add_find);
    ("replace", `Quick, test_replace);
    ("default route", `Quick, test_default_route);
    ("remove", `Quick, test_remove);
    ("remove absent", `Quick, test_remove_absent);
    ("longest match", `Quick, test_longest_match);
    ("covering", `Quick, test_covering);
    ("covered", `Quick, test_covered);
    ("to_list sorted", `Quick, test_to_list_sorted);
    ("update", `Quick, test_update);
    ("map/filter", `Quick, test_map_filter);
    ("equal", `Quick, test_equal);
    ("descent bound nodes", `Quick, test_descent_reaches_bound_nodes);
    ("descent mismatch", `Quick, test_descent_stops_at_mismatch);
    QCheck_alcotest.to_alcotest prop_model;
    QCheck_alcotest.to_alcotest prop_to_list_sorted;
    QCheck_alcotest.to_alcotest prop_covering_covered_dual;
    QCheck_alcotest.to_alcotest prop_fold_diff
  ]

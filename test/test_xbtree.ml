(* Tests for the external B+-tree: predecessor search against a
   sorted-array oracle, the O(log_B n) I/O bound, and persistence. *)

let build ?(block_size = 4) keys =
  let stats = Emio.Io_stats.create () in
  let entries = Array.map (fun k -> (k, k * 10)) keys in
  (Xbtree.Btree.bulk_load ~stats ~block_size ~cmp:compare entries, stats)

let sorted n = Array.init n (fun i -> i * 2) (* even keys 0,2,...,2n-2 *)

let test_predecessor () =
  let t, _ = build (sorted 100) in
  let pred x = Option.map fst (Xbtree.Btree.predecessor t x) in
  Alcotest.(check (option int)) "exact" (Some 42) (pred 42);
  Alcotest.(check (option int)) "between" (Some 42) (pred 43);
  Alcotest.(check (option int)) "below all" None (pred (-1));
  Alcotest.(check (option int)) "above all" (Some 198) (pred 1000)

let test_duplicates () =
  let keys = Array.make 20 7 in
  let t, _ = build ~block_size:3 keys in
  (* 7 leaves + 3 + 1 internal nodes: every duplicate is kept *)
  Alcotest.(check int) "all duplicates stored" 11 (Xbtree.Btree.space_blocks t);
  Alcotest.(check (option int)) "pred dup" (Some 7)
    (Option.map fst (Xbtree.Btree.predecessor t 7));
  Alcotest.(check (option int)) "pred below dups" None
    (Option.map fst (Xbtree.Btree.predecessor t 6))

let test_empty_and_tiny () =
  let t, _ = build [||] in
  Alcotest.(check bool) "empty pred" true (Xbtree.Btree.predecessor t 1 = None);
  let t1, _ = build [| 5 |] in
  Alcotest.(check bool) "singleton" true
    (Xbtree.Btree.predecessor t1 5 = Some (5, 50));
  Alcotest.(check int) "height 1" 1 (Xbtree.Btree.height t1)

let test_rejects_unsorted () =
  let stats = Emio.Io_stats.create () in
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Btree.bulk_load: entries not sorted") (fun () ->
      ignore
        (Xbtree.Btree.bulk_load ~stats ~block_size:4 ~cmp:compare
           [| (2, ()); (1, ()) |]))

let test_io_bounds () =
  (* B = 16, n = 4096 entries => 256 leaves, height 3.  A search must
     touch exactly [height] blocks. *)
  let t, stats = build ~block_size:16 (sorted 4096) in
  Alcotest.(check int) "height" 3 (Xbtree.Btree.height t);
  Emio.Io_stats.reset stats;
  ignore (Xbtree.Btree.predecessor t 1234);
  Alcotest.(check int) "search costs height I/Os" 3
    (Emio.Io_stats.reads stats)

let test_space_linear () =
  let t, _ = build ~block_size:16 (sorted 4096) in
  (* leaves = 256, internals = 16 + 1 *)
  Alcotest.(check int) "space" 273 (Xbtree.Btree.space_blocks t)

(* The persisted form is everything but the comparator: a decoded
   tree, given [cmp] again, answers and costs like the original. *)
let test_portable_roundtrip () =
  let t, _ = build ~block_size:4 (sorted 60) in
  let codec = Xbtree.Btree.portable_codec Emio.Codec.int Emio.Codec.int in
  let bytes = Emio.Codec.encode codec (Xbtree.Btree.to_portable t) in
  let stats = Emio.Io_stats.create () in
  let back =
    Xbtree.Btree.of_portable ~stats ~cmp:compare
      (Emio.Codec.decode codec bytes)
  in
  Alcotest.(check int)
    "height" (Xbtree.Btree.height t)
    (Xbtree.Btree.height back);
  Alcotest.(check int) "space" (Xbtree.Btree.space_blocks t)
    (Xbtree.Btree.space_blocks back);
  List.iter
    (fun x ->
      Alcotest.(check (option (pair int int)))
        (Printf.sprintf "predecessor %d" x)
        (Xbtree.Btree.predecessor t x)
        (Xbtree.Btree.predecessor back x))
    [ -1; 0; 1; 57; 58; 118; 119; 500 ];
  Emio.Io_stats.reset stats;
  ignore (Xbtree.Btree.predecessor back 77);
  Alcotest.(check int) "search costs height I/Os on the revived stats"
    (Xbtree.Btree.height back) (Emio.Io_stats.reads stats)

(* "Predecessor" follows [cmp], not the polymorphic order: under a
   descending comparator it is the least key >= the probe. *)
let test_custom_cmp () =
  let desc a b = compare b a in
  let keys = [| 90; 70; 50; 30; 10 |] in
  let stats = Emio.Io_stats.create () in
  let t =
    Xbtree.Btree.bulk_load ~stats ~block_size:2 ~cmp:desc
      (Array.map (fun k -> (k, -k)) keys)
  in
  let pred x = Xbtree.Btree.predecessor t x in
  Alcotest.(check (option (pair int int))) "exact" (Some (50, -50)) (pred 50);
  Alcotest.(check (option (pair int int))) "between" (Some (70, -70)) (pred 60);
  Alcotest.(check (option (pair int int))) "before the first" None (pred 95);
  Alcotest.(check (option (pair int int))) "past the last" (Some (10, -10))
    (pred 0);
  Alcotest.check_raises "ascending input rejected under desc"
    (Invalid_argument "Btree.bulk_load: entries not sorted") (fun () ->
      ignore
        (Xbtree.Btree.bulk_load ~stats ~block_size:2 ~cmp:desc
           [| (1, 0); (2, 0) |]))

let prop_matches_oracle =
  QCheck.Test.make ~count:300 ~name:"btree matches sorted-array oracle"
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 200) (int_range 0 100))
        (list_of_size Gen.(1 -- 30) (int_range (-5) 105)))
    (fun (keys, probes) ->
      let arr = Array.of_list (List.sort compare keys) in
      let entries = Array.map (fun k -> (k, k)) arr in
      let stats = Emio.Io_stats.create () in
      let t =
        Xbtree.Btree.bulk_load ~stats ~block_size:3 ~cmp:compare entries
      in
      List.for_all
        (fun x ->
          let oracle_pred =
            Array.fold_left
              (fun acc (k, _) -> if k <= x then Some k else acc)
              None entries
          in
          oracle_pred = Option.map fst (Xbtree.Btree.predecessor t x))
        probes)

let () =
  Alcotest.run "xbtree"
    [
      ( "btree",
        [
          Alcotest.test_case "predecessor" `Quick test_predecessor;
          Alcotest.test_case "duplicates" `Quick test_duplicates;
          Alcotest.test_case "empty and tiny" `Quick test_empty_and_tiny;
          Alcotest.test_case "rejects unsorted" `Quick test_rejects_unsorted;
          Alcotest.test_case "io bounds" `Quick test_io_bounds;
          Alcotest.test_case "linear space" `Quick test_space_linear;
          Alcotest.test_case "portable roundtrip" `Quick
            test_portable_roundtrip;
          Alcotest.test_case "custom comparator" `Quick test_custom_cmp;
          QCheck_alcotest.to_alcotest prop_matches_oracle;
        ] );
    ]

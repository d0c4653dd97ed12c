(* Tests for the external-memory simulator: block store, LRU cache,
   runs. *)

let check = Alcotest.(check int)

let test_store_counts () =
  let stats = Emio.Io_stats.create () in
  let store = Emio.Store.create ~stats ~block_size:4 () in
  let id1 = Emio.Store.alloc store [| 1; 2; 3; 4 |] in
  let id2 = Emio.Store.alloc store [| 5 |] in
  check "writes after two allocs" 2 (Emio.Io_stats.writes stats);
  let b1 = Emio.Store.read store id1 in
  check "block contents" 3 b1.(2);
  check "reads" 1 (Emio.Io_stats.reads stats);
  Emio.Store.write store id2 [| 9 |];
  check "writes" 3 (Emio.Io_stats.writes stats);
  check "blocks used" 2 (Emio.Store.blocks_used store)

let test_store_rejects_oversized () =
  let stats = Emio.Io_stats.create () in
  let store = Emio.Store.create ~stats ~block_size:2 () in
  Alcotest.check_raises "oversized block"
    (Invalid_argument "Store: block larger than block_size") (fun () ->
      ignore (Emio.Store.alloc store [| 1; 2; 3 |]))

let test_cache_hits () =
  let stats = Emio.Io_stats.create () in
  let store = Emio.Store.create ~stats ~block_size:4 ~cache_blocks:2 () in
  let id1 = Emio.Store.alloc store [| 1 |] in
  let id2 = Emio.Store.alloc store [| 2 |] in
  let id3 = Emio.Store.alloc store [| 3 |] in
  Emio.Io_stats.reset stats;
  (* id2 and id3 are resident (capacity 2, id1 was evicted) *)
  ignore (Emio.Store.read store id3);
  ignore (Emio.Store.read store id2);
  check "two hits" 2 (Emio.Io_stats.cache_hits stats);
  check "no reads charged" 0 (Emio.Io_stats.reads stats);
  ignore (Emio.Store.read store id1);
  check "miss charged" 1 (Emio.Io_stats.reads stats);
  Emio.Store.drop_cache store;
  Emio.Io_stats.reset stats;
  ignore (Emio.Store.read store id1);
  check "cold after drop_cache" 1 (Emio.Io_stats.reads stats)

let test_cold_cache_every_access_charged () =
  let stats = Emio.Io_stats.create () in
  let store = Emio.Store.create ~stats ~block_size:4 () in
  let id = Emio.Store.alloc store [| 1 |] in
  Emio.Io_stats.reset stats;
  for _ = 1 to 5 do
    ignore (Emio.Store.read store id)
  done;
  check "five reads, no cache" 5 (Emio.Io_stats.reads stats)

(* Every domain that touches a store models its own main memory of
   exactly [cache_blocks] blocks: a read pattern replayed on a spawned
   domain hits and misses exactly as it does on the main domain. *)
let test_cache_capacity_per_domain () =
  let stats = Emio.Io_stats.create () in
  let store = Emio.Store.create ~stats ~block_size:4 ~cache_blocks:2 () in
  List.iter (fun v -> ignore (Emio.Store.alloc store [| v |])) [ 0; 1; 2 ];
  let pattern = [ 0; 1; 0; 2; 1; 1; 0; 2; 2 ] in
  let hits () =
    List.map
      (fun id ->
        let before = Emio.Io_stats.cache_hits stats in
        ignore (Emio.Store.read store id);
        Emio.Io_stats.cache_hits stats > before)
      pattern
  in
  let spawned = Domain.join (Domain.spawn hits) in
  (* the allocs filled the main domain's cache; start it cold too *)
  Emio.Store.drop_cache store;
  let main = hits () in
  Alcotest.(check (list bool)) "an LRU of two blocks"
    [ false; false; true; false; false; true; false; false; true ]
    main;
  Alcotest.(check (list bool)) "spawned domain = main domain" main spawned

(* The simulator charges model I/Os only: the physical-device counters
   (bytes, evictions) stay zero, so model-level experiments are not
   polluted.  reset must clear them too (they are fed by the file
   backend). *)
let test_stats_physical_counters () =
  let stats = Emio.Io_stats.create () in
  let store = Emio.Store.create ~stats ~block_size:4 ~cache_blocks:1 () in
  let id1 = Emio.Store.alloc store [| 1 |] in
  let id2 = Emio.Store.alloc store [| 2 |] in
  ignore (Emio.Store.read store id1);
  ignore (Emio.Store.read store id2);
  check "simulator writes no bytes" 0 (Emio.Io_stats.bytes_written stats);
  check "simulator reads no bytes" 0 (Emio.Io_stats.bytes_read stats);
  check "simulator records no evictions" 0 (Emio.Io_stats.evictions stats);
  Emio.Io_stats.record_bytes_read stats 4096;
  Emio.Io_stats.record_bytes_written stats 8192;
  Emio.Io_stats.record_eviction stats;
  check "bytes read recorded" 4096 (Emio.Io_stats.bytes_read stats);
  check "bytes written recorded" 8192 (Emio.Io_stats.bytes_written stats);
  check "eviction recorded" 1 (Emio.Io_stats.evictions stats);
  Emio.Io_stats.reset stats;
  check "reset clears bytes read" 0 (Emio.Io_stats.bytes_read stats);
  check "reset clears bytes written" 0 (Emio.Io_stats.bytes_written stats);
  check "reset clears evictions" 0 (Emio.Io_stats.evictions stats);
  check "reset clears reads" 0 (Emio.Io_stats.reads stats)

let test_lru_eviction_order () =
  let lru = Emio.Lru.create ~capacity:2 in
  Alcotest.(check bool) "miss a" false (Emio.Lru.touch lru 1);
  Alcotest.(check bool) "miss b" false (Emio.Lru.touch lru 2);
  Alcotest.(check bool) "hit a" true (Emio.Lru.touch lru 1);
  (* 2 is now LRU; inserting 3 evicts it *)
  Alcotest.(check bool) "miss c" false (Emio.Lru.touch lru 3);
  Alcotest.(check bool) "2 evicted" false (Emio.Lru.mem lru 2);
  Alcotest.(check bool) "1 kept" true (Emio.Lru.mem lru 1)

let test_lru_zero_capacity () =
  let lru = Emio.Lru.create ~capacity:0 in
  Alcotest.(check bool) "never hits" false (Emio.Lru.touch lru 1);
  Alcotest.(check bool) "never hits twice" false (Emio.Lru.touch lru 1);
  Alcotest.(check int) "empty" 0 (Emio.Lru.size lru)

let test_lru_remove () =
  let lru = Emio.Lru.create ~capacity:3 in
  ignore (Emio.Lru.touch lru 1);
  ignore (Emio.Lru.touch lru 2);
  Emio.Lru.remove lru 1;
  Alcotest.(check bool) "removed" false (Emio.Lru.mem lru 1);
  Alcotest.(check int) "size" 1 (Emio.Lru.size lru)

let test_run_roundtrip () =
  let stats = Emio.Io_stats.create () in
  let store = Emio.Store.create ~stats ~block_size:3 () in
  let items = Array.init 10 (fun i -> i * i) in
  let run = Emio.Run.of_array store items in
  check "length" 10 (Emio.Run.length run);
  check "blocks" 4 (Emio.Run.block_count run);
  Alcotest.(check (array int)) "roundtrip" items (Emio.Run.to_array run);
  Emio.Io_stats.reset stats;
  let sum = Emio.Run.fold ( + ) 0 run in
  check "fold result" (Array.fold_left ( + ) 0 items) sum;
  check "scan cost = ceil(10/3)" 4 (Emio.Io_stats.reads stats)

let test_run_empty () =
  let stats = Emio.Io_stats.create () in
  let store = Emio.Store.create ~stats ~block_size:3 () in
  let run = Emio.Run.empty store in
  check "length" 0 (Emio.Run.length run);
  Alcotest.(check (array int)) "empty array" [||] (Emio.Run.to_array run)

(* A run handed its blocks is the run of_array writes for their
   concatenation: same blocks, charges and items, and no copy. *)
let test_run_of_blocks () =
  let stats = Emio.Io_stats.create () in
  let store = Emio.Store.create ~stats ~block_size:4 () in
  let blocks = [| [| 0; 1; 2; 3 |]; [| 4; 5; 6; 7 |]; [| 8; 9 |] |] in
  let run = Emio.Run.of_blocks store blocks in
  check "three writes" 3 (Emio.Io_stats.writes stats);
  check "length" 10 (Emio.Run.length run);
  check "blocks" 3 (Emio.Run.block_count run);
  Alcotest.(check bool) "block kept as given" true
    (Emio.Run.read_block run 1 == blocks.(1));
  Alcotest.(check (array int)) "items" (Array.init 10 Fun.id)
    (Emio.Run.to_array run);
  Emio.Io_stats.reset stats;
  Alcotest.(check (array int)) "range across blocks" [| 3; 4; 5 |]
    (Emio.Run.read_range run ~pos:3 ~len:3);
  check "two reads" 2 (Emio.Io_stats.reads stats);
  check "no blocks, empty run" 0
    (Emio.Run.length (Emio.Run.of_blocks store [||]));
  Alcotest.check_raises "short inner block"
    (Invalid_argument "Run.of_blocks: every block but the last must be full")
    (fun () -> ignore (Emio.Run.of_blocks store [| [| 1 |]; [| 2 |] |]))

let test_run_read_range () =
  let stats = Emio.Io_stats.create () in
  let store = Emio.Store.create ~stats ~block_size:4 () in
  let run = Emio.Run.of_array store (Array.init 14 Fun.id) in
  Emio.Io_stats.reset stats;
  Alcotest.(check (array int)) "inside one block" [| 1; 2 |]
    (Emio.Run.read_range run ~pos:1 ~len:2);
  check "one read" 1 (Emio.Io_stats.reads stats);
  Emio.Io_stats.reset stats;
  Alcotest.(check (array int)) "spanning blocks" [| 3; 4; 5; 6; 7; 8 |]
    (Emio.Run.read_range run ~pos:3 ~len:6);
  check "three reads" 3 (Emio.Io_stats.reads stats);
  Alcotest.(check (array int)) "suffix into partial block" [| 12; 13 |]
    (Emio.Run.read_range run ~pos:12 ~len:2);
  Alcotest.(check (array int)) "empty" [||]
    (Emio.Run.read_range run ~pos:5 ~len:0);
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Run.read_range: out of bounds") (fun () ->
      ignore (Emio.Run.read_range run ~pos:10 ~len:5))

let test_io_stats_checkpoint () =
  let stats = Emio.Io_stats.create () in
  let store = Emio.Store.create ~stats ~block_size:2 () in
  let id = Emio.Store.alloc store [| 1 |] in
  let mark = Emio.Io_stats.checkpoint stats in
  ignore (Emio.Store.read store id);
  ignore (Emio.Store.read store id);
  check "span measures two I/Os" 2 (Emio.Io_stats.total stats - mark)

let test_run_prefix_scan () =
  let stats = Emio.Io_stats.create () in
  let store = Emio.Store.create ~stats ~block_size:2 () in
  let run = Emio.Run.of_array store (Array.init 10 Fun.id) in
  Emio.Io_stats.reset stats;
  let seen = ref 0 in
  Emio.Run.iter_prefix_blocks
    (fun block ->
      seen := !seen + Array.length block;
      !seen < 4)
    run;
  check "stopped after two blocks" 4 !seen;
  check "only two reads charged" 2 (Emio.Io_stats.reads stats)

let prop_lru_never_exceeds_capacity =
  QCheck.Test.make ~name:"lru size <= capacity" ~count:200
    QCheck.(pair (int_range 1 8) (small_list (int_range 0 20)))
    (fun (cap, accesses) ->
      let lru = Emio.Lru.create ~capacity:cap in
      List.iter (fun id -> ignore (Emio.Lru.touch lru id)) accesses;
      Emio.Lru.size lru <= cap)

let () =
  Alcotest.run "emio"
    [
      ( "store",
        [
          Alcotest.test_case "io counting" `Quick test_store_counts;
          Alcotest.test_case "oversized rejected" `Quick
            test_store_rejects_oversized;
          Alcotest.test_case "cache hits" `Quick test_cache_hits;
          Alcotest.test_case "cache capacity per domain" `Quick
            test_cache_capacity_per_domain;
          Alcotest.test_case "physical counters" `Quick
            test_stats_physical_counters;
          Alcotest.test_case "cold cache" `Quick
            test_cold_cache_every_access_charged;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "zero capacity" `Quick test_lru_zero_capacity;
          Alcotest.test_case "remove" `Quick test_lru_remove;
          QCheck_alcotest.to_alcotest prop_lru_never_exceeds_capacity;
        ] );
      ( "run",
        [
          Alcotest.test_case "roundtrip" `Quick test_run_roundtrip;
          Alcotest.test_case "empty" `Quick test_run_empty;
          Alcotest.test_case "of_blocks" `Quick test_run_of_blocks;
          Alcotest.test_case "prefix scan" `Quick test_run_prefix_scan;
          Alcotest.test_case "read_range" `Quick test_run_read_range;
          Alcotest.test_case "stats checkpoint" `Quick
            test_io_stats_checkpoint;
        ] );
    ]

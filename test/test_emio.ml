(* Tests for the external-memory simulator: block store, LRU cache,
   runs, I/O counters. *)

let check = Alcotest.(check int)

let test_store_counts () =
  let stats = Emio.Io_stats.create () in
  let store = Emio.Store.create ~stats ~block_size:4 () in
  let id1 = Emio.Store.alloc store [| 1; 2; 3; 4 |] in
  ignore (Emio.Store.alloc store [| 5 |]);
  check "writes after two allocs" 2 (Emio.Io_stats.writes stats);
  let b1 = Emio.Store.read store id1 in
  check "block contents" 3 b1.(2);
  check "reads" 1 (Emio.Io_stats.reads stats);
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
  let seen = ref [] in
  Emio.Run.iter_range (fun x -> seen := x :: !seen) run ~pos:3 ~len:3;
  Alcotest.(check (list int)) "range across blocks" [ 3; 4; 5 ]
    (List.rev !seen);
  check "two reads" 2 (Emio.Io_stats.reads stats);
  check "no blocks, empty run" 0
    (Emio.Run.length (Emio.Run.of_blocks store [||]));
  Alcotest.check_raises "short inner block"
    (Invalid_argument "Run.of_blocks: every block but the last must be full")
    (fun () -> ignore (Emio.Run.of_blocks store [| [| 1 |]; [| 2 |] |]))

(* The victim [touch_report] names is the block [touch] would evict:
   the buffer pool writes back exactly that frame. *)
let test_lru_touch_report () =
  let lru = Emio.Lru.create ~capacity:2 in
  let report = Alcotest.(pair bool (option int)) in
  Alcotest.check report "miss, room left" (false, None)
    (Emio.Lru.touch_report lru 1);
  Alcotest.check report "miss, room left" (false, None)
    (Emio.Lru.touch_report lru 2);
  Alcotest.check report "hit evicts nothing" (true, None)
    (Emio.Lru.touch_report lru 1);
  Alcotest.check report "miss evicts the LRU block" (false, Some 2)
    (Emio.Lru.touch_report lru 3);
  Alcotest.check report "next victim is 1" (false, Some 1)
    (Emio.Lru.touch_report lru 4);
  let cold = Emio.Lru.create ~capacity:0 in
  Alcotest.check report "capacity 0 keeps nothing" (false, None)
    (Emio.Lru.touch_report cold 1)

let test_lru_clear () =
  let lru = Emio.Lru.create ~capacity:3 in
  List.iter (fun id -> ignore (Emio.Lru.touch lru id)) [ 1; 2; 3 ];
  Emio.Lru.clear lru;
  check "empty after clear" 0 (Emio.Lru.size lru);
  Alcotest.(check bool) "1 gone" false (Emio.Lru.mem lru 1);
  (* the list is relinked: refilling evicts in LRU order again *)
  List.iter (fun id -> ignore (Emio.Lru.touch lru id)) [ 4; 5; 6 ];
  Alcotest.(check (pair bool (option int)))
    "refilled cache evicts its oldest block" (false, Some 4)
    (Emio.Lru.touch_report lru 7)

(* of_array on no items allocates nothing and scans for free. *)
let test_run_empty () =
  let stats = Emio.Io_stats.create () in
  let store = Emio.Store.create ~stats ~block_size:3 () in
  let run = Emio.Run.of_array store [||] in
  check "length" 0 (Emio.Run.length run);
  check "no blocks" 0 (Emio.Run.block_count run);
  Alcotest.(check (array int)) "empty array" [||] (Emio.Run.to_array run);
  check "nothing charged" 0 (Emio.Io_stats.total stats);
  Emio.Run.iter_range (fun _ -> Alcotest.fail "visited an item") run ~pos:0
    ~len:0

let test_run_iter_range () =
  let stats = Emio.Io_stats.create () in
  let store = Emio.Store.create ~stats ~block_size:4 () in
  let run = Emio.Run.of_array store (Array.init 14 Fun.id) in
  let range ~pos ~len =
    let seen = ref [] in
    Emio.Run.iter_range (fun x -> seen := x :: !seen) run ~pos ~len;
    Array.of_list (List.rev !seen)
  in
  Emio.Io_stats.reset stats;
  Alcotest.(check (array int)) "inside one block" [| 1; 2 |]
    (range ~pos:1 ~len:2);
  check "one read" 1 (Emio.Io_stats.reads stats);
  Emio.Io_stats.reset stats;
  Alcotest.(check (array int)) "spanning blocks" [| 3; 4; 5; 6; 7; 8 |]
    (range ~pos:3 ~len:6);
  check "three reads" 3 (Emio.Io_stats.reads stats);
  Alcotest.(check (array int)) "suffix into partial block" [| 12; 13 |]
    (range ~pos:12 ~len:2);
  Emio.Io_stats.reset stats;
  Alcotest.(check (array int)) "empty" [||] (range ~pos:5 ~len:0);
  check "an empty range reads nothing" 0 (Emio.Io_stats.reads stats);
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Run.iter_range: out of bounds") (fun () ->
      ignore (range ~pos:10 ~len:5));
  Alcotest.check_raises "negative position"
    (Invalid_argument "Run.iter_range: out of bounds") (fun () ->
      ignore (range ~pos:(-1) ~len:2))

let test_run_read_block () =
  let stats = Emio.Io_stats.create () in
  let store = Emio.Store.create ~stats ~block_size:3 () in
  let run = Emio.Run.of_list store [ 10; 11; 12; 13; 14 ] in
  Alcotest.(check bool)
    "the run's own store" true
    (Emio.Run.store run == store);
  Emio.Io_stats.reset stats;
  Alcotest.(check (array int)) "first block" [| 10; 11; 12 |]
    (Emio.Run.read_block run 0);
  Alcotest.(check (array int)) "partial last block" [| 13; 14 |]
    (Emio.Run.read_block run 1);
  check "one read per block" 2 (Emio.Io_stats.reads stats)

(* A run over a shared store persists as ids + length and revives
   against the same store without writing anything. *)
let test_run_portable () =
  let stats = Emio.Io_stats.create () in
  let store = Emio.Store.create ~stats ~block_size:3 () in
  let run = Emio.Run.of_array store (Array.init 8 (fun i -> 2 * i)) in
  let bytes =
    Emio.Codec.encode Emio.Run.portable_codec (Emio.Run.to_portable run)
  in
  let writes = Emio.Io_stats.writes stats in
  let back =
    Emio.Run.of_portable store
      (Emio.Codec.decode Emio.Run.portable_codec bytes)
  in
  check "no writes to revive" writes (Emio.Io_stats.writes stats);
  check "length" 8 (Emio.Run.length back);
  check "blocks" 3 (Emio.Run.block_count back);
  Alcotest.(check (array int)) "items" (Emio.Run.to_array run)
    (Emio.Run.to_array back)

(* A run over a private simulator store embeds its blocks: decoding
   rebuilds the store with its block size and cache, charging the new
   stats only. *)
let test_run_stored () =
  let stats = Emio.Io_stats.create () in
  let store = Emio.Store.create ~stats ~block_size:3 ~cache_blocks:2 () in
  let items = Array.init 7 (fun i -> i * 3) in
  let run = Emio.Run.of_array store items in
  let codec = Emio.Run.stored_codec Emio.Codec.int in
  let bytes = Emio.Codec.encode codec (Emio.Run.to_stored run) in
  let stats' = Emio.Io_stats.create () in
  let back =
    Emio.Run.of_stored ~stats:stats' (Emio.Codec.decode codec bytes)
  in
  let store' = Emio.Run.store back in
  check "block size" 3 (Emio.Store.block_size store');
  check "cache blocks" 2 (Emio.Store.cache_blocks store');
  check "blocks used" 3 (Emio.Store.blocks_used store');
  let before = Emio.Io_stats.total stats in
  Alcotest.(check (array int)) "items" items (Emio.Run.to_array back);
  check "reads charge the new stats" 3 (Emio.Io_stats.reads stats');
  check "the old stats see nothing" before (Emio.Io_stats.total stats)

let test_io_stats_merge_into () =
  let src = Emio.Io_stats.create () and dst = Emio.Io_stats.create () in
  Emio.Io_stats.record_read src;
  Emio.Io_stats.record_read src;
  Emio.Io_stats.record_write src;
  Emio.Io_stats.record_hit src;
  Emio.Io_stats.record_bytes_read src 100;
  Emio.Io_stats.record_read dst;
  let ctx = Emio.Cost_ctx.create () in
  Emio.Cost_ctx.with_ctx ctx (fun () -> Emio.Io_stats.merge_into ~src dst);
  check "reads added" 3 (Emio.Io_stats.reads dst);
  check "writes added" 1 (Emio.Io_stats.writes dst);
  check "hits added" 1 (Emio.Io_stats.cache_hits dst);
  check "bytes added" 100 (Emio.Io_stats.bytes_read dst);
  check "src untouched" 2 (Emio.Io_stats.reads src);
  check "ctx sees the merged reads" 2 (Emio.Cost_ctx.reads ctx);
  check "ctx sees the merged writes" 1 (Emio.Cost_ctx.writes ctx);
  check "ctx sees the merged hits" 1 (Emio.Cost_ctx.hits ctx);
  check "ctx sees the merged bytes" 100 (Emio.Cost_ctx.bytes_read ctx)

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
          Alcotest.test_case "touch_report" `Quick test_lru_touch_report;
          Alcotest.test_case "clear" `Quick test_lru_clear;
          QCheck_alcotest.to_alcotest prop_lru_never_exceeds_capacity;
        ] );
      ( "run",
        [
          Alcotest.test_case "roundtrip" `Quick test_run_roundtrip;
          Alcotest.test_case "of_blocks" `Quick test_run_of_blocks;
          Alcotest.test_case "empty" `Quick test_run_empty;
          Alcotest.test_case "iter_range" `Quick test_run_iter_range;
          Alcotest.test_case "read_block" `Quick test_run_read_block;
          Alcotest.test_case "portable" `Quick test_run_portable;
          Alcotest.test_case "stored" `Quick test_run_stored;
        ] );
      ( "io_stats",
        [ Alcotest.test_case "merge_into" `Quick test_io_stats_merge_into ] );
    ]

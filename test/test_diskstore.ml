(* Tests for the persistent block store: CRC32, checksummed page I/O,
   the buffer pool (LRU + CLOCK eviction, dirty write-back), the file
   backend behind Emio.Store, and snapshot save/load robustness. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let temp_path () =
  let path = Filename.temp_file "lcsearch_test" ".snapshot" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let b = Bytes.create len in
  really_input ic b 0 len;
  close_in ic;
  Bytes.to_string b

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ---------- CRC32 ---------- *)

let test_crc32_vectors () =
  check "check value" 0xCBF43926 (Diskstore.Crc32.digest_string "123456789");
  check "empty" 0 (Diskstore.Crc32.digest_string "");
  let b = Bytes.of_string "hello, block store" in
  let whole = Diskstore.Crc32.digest b in
  let part =
    Diskstore.Crc32.update
      (Diskstore.Crc32.update 0 b ~pos:0 ~len:5)
      b ~pos:5 ~len:(Bytes.length b - 5)
  in
  check "incremental = whole" whole part

(* ---------- Block_file ---------- *)

let with_block_file ?(page_size = 128) f =
  let path = temp_path () in
  let stats = Emio.Io_stats.create () in
  let file = Diskstore.Block_file.create ~stats ~path ~page_size in
  let r = f path stats file in
  Diskstore.Block_file.close file;
  r

let expect_payload = function
  | Ok b -> Bytes.to_string b
  | Error e ->
      Alcotest.failf "unexpected read error: %a"
        Diskstore.Block_file.pp_read_error e

let test_block_file_roundtrip () =
  with_block_file (fun path stats file ->
      let cap = Diskstore.Block_file.payload_capacity file in
      check "capacity" 120 cap;
      Diskstore.Block_file.write_page file 0 (Bytes.of_string "alpha");
      Diskstore.Block_file.write_page file 1 (Bytes.make cap 'x');
      Diskstore.Block_file.write_page file 2 Bytes.empty;
      check "pages" 3 (Diskstore.Block_file.pages file);
      Alcotest.(check string)
        "page 0" "alpha"
        (expect_payload (Diskstore.Block_file.read_page file 0));
      Alcotest.(check string)
        "page 1" (String.make cap 'x')
        (expect_payload (Diskstore.Block_file.read_page file 1));
      Alcotest.(check string)
        "page 2" ""
        (expect_payload (Diskstore.Block_file.read_page file 2));
      check "bytes written = 3 pages" (3 * 128)
        (Emio.Io_stats.bytes_written stats);
      check "writes" 3 (Emio.Io_stats.writes stats);
      Diskstore.Block_file.flush file;
      (* reopen from disk *)
      let stats2 = Emio.Io_stats.create () in
      let ro =
        Diskstore.Block_file.open_existing ~stats:stats2 ~path ~page_size:128 ()
      in
      Alcotest.(check string)
        "reopened page 0" "alpha"
        (expect_payload (Diskstore.Block_file.read_page ro 0));
      check "reopened pages" 3 (Diskstore.Block_file.pages ro);
      check "bytes read" 128 (Emio.Io_stats.bytes_read stats2);
      Diskstore.Block_file.close ro)

let test_block_file_corruption () =
  with_block_file (fun path _stats file ->
      Diskstore.Block_file.write_page file 0 (Bytes.of_string "payload-zero");
      Diskstore.Block_file.write_page file 1 (Bytes.of_string "payload-one");
      Diskstore.Block_file.flush file;
      (* flip one payload byte of page 1 *)
      let raw = Bytes.of_string (read_file path) in
      let off = 128 + 8 + 3 in
      Bytes.set raw off (Char.chr (Char.code (Bytes.get raw off) lxor 0x40));
      write_file path (Bytes.to_string raw);
      let stats = Emio.Io_stats.create () in
      let ro =
        Diskstore.Block_file.open_existing ~stats ~path ~page_size:128 ()
      in
      (match Diskstore.Block_file.read_page ro 0 with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "page 0 should be intact");
      (match Diskstore.Block_file.read_page ro 1 with
      | Error (Diskstore.Block_file.Bad_checksum { page = 1 }) -> ()
      | Ok _ -> Alcotest.fail "flipped byte not detected"
      | Error e ->
          Alcotest.failf "wrong error: %a" Diskstore.Block_file.pp_read_error e);
      (match Diskstore.Block_file.read_page ro 7 with
      | Error (Diskstore.Block_file.Out_of_range _) -> ()
      | _ -> Alcotest.fail "expected Out_of_range");
      Diskstore.Block_file.close ro;
      (* truncate mid-page *)
      let whole = read_file path in
      write_file path (String.sub whole 0 (128 + 13));
      let ro =
        Diskstore.Block_file.open_existing ~stats ~path ~page_size:128 ()
      in
      (match Diskstore.Block_file.read_page ro 1 with
      | Error (Diskstore.Block_file.Short_page { page = 1 }) -> ()
      | _ -> Alcotest.fail "expected Short_page");
      Diskstore.Block_file.close ro)

(* ---------- Buffer_pool ---------- *)

let with_pool ?(page_size = 128) ~policy ~capacity f =
  with_block_file ~page_size (fun path stats file ->
      let pool = Diskstore.Buffer_pool.create ~file ~policy ~capacity in
      f path stats pool)

let pool_read pool page =
  match Diskstore.Buffer_pool.read_page pool page with
  | Ok b -> Bytes.to_string b
  | Error e ->
      Alcotest.failf "pool read error: %a" Diskstore.Block_file.pp_read_error e

let test_pool_lru_eviction_order () =
  with_pool ~policy:Diskstore.Buffer_pool.Lru ~capacity:2
    (fun _path stats pool ->
      let file = Diskstore.Buffer_pool.file pool in
      for i = 0 to 3 do
        Diskstore.Block_file.write_page file i
          (Bytes.of_string (Printf.sprintf "page%d" i))
      done;
      Emio.Io_stats.reset stats;
      ignore (pool_read pool 0);
      ignore (pool_read pool 1);
      check "two misses" 2 (Emio.Io_stats.reads stats);
      ignore (pool_read pool 0);
      check "hit on 0" 1 (Emio.Io_stats.cache_hits stats);
      (* 1 is now least recently used; 2 evicts it *)
      ignore (pool_read pool 2);
      check "one eviction" 1 (Emio.Io_stats.evictions stats);
      Emio.Io_stats.reset stats;
      ignore (pool_read pool 0);
      check "0 survived (hit)" 1 (Emio.Io_stats.cache_hits stats);
      ignore (pool_read pool 1);
      check "1 was evicted (miss)" 1 (Emio.Io_stats.reads stats))

let test_pool_clock_second_chance () =
  with_pool ~policy:Diskstore.Buffer_pool.Clock ~capacity:2
    (fun _path stats pool ->
      let file = Diskstore.Buffer_pool.file pool in
      for i = 0 to 3 do
        Diskstore.Block_file.write_page file i
          (Bytes.of_string (Printf.sprintf "page%d" i))
      done;
      Emio.Io_stats.reset stats;
      ignore (pool_read pool 0);
      ignore (pool_read pool 1);
      (* both frames referenced: inserting 2 sweeps the full circle
         clearing both bits and evicts 0 (hand order).  Now 1's bit is
         clear and 2's is set *)
      ignore (pool_read pool 2);
      check "full sweep evicts in hand order" 1 (Emio.Io_stats.evictions stats);
      (* re-reference 2, then insert 3: the hand lands on 1 first, and
         2's set bit earns it a second chance — 1 is the victim *)
      ignore (pool_read pool 2);
      ignore (pool_read pool 3);
      check "second eviction" 2 (Emio.Io_stats.evictions stats);
      Emio.Io_stats.reset stats;
      ignore (pool_read pool 2);
      check "2 kept by second chance" 1 (Emio.Io_stats.cache_hits stats);
      ignore (pool_read pool 1);
      check "1 evicted" 1 (Emio.Io_stats.reads stats))

let test_pool_dirty_writeback_on_eviction () =
  with_pool ~policy:Diskstore.Buffer_pool.Lru ~capacity:1
    (fun _path stats pool ->
      let file = Diskstore.Buffer_pool.file pool in
      Emio.Io_stats.reset stats;
      Diskstore.Buffer_pool.write_page pool 0 (Bytes.of_string "dirty-zero");
      check "write buffered, no physical I/O" 0 (Emio.Io_stats.writes stats);
      Diskstore.Buffer_pool.write_page pool 1 (Bytes.of_string "dirty-one");
      check "eviction wrote page 0 back" 1 (Emio.Io_stats.writes stats);
      check "eviction recorded" 1 (Emio.Io_stats.evictions stats);
      (* page 0 must be physically readable now, bypassing the pool *)
      Alcotest.(check string)
        "written-back content" "dirty-zero"
        (expect_payload (Diskstore.Block_file.read_page file 0));
      Diskstore.Buffer_pool.flush pool;
      Alcotest.(check string)
        "flushed content" "dirty-one"
        (expect_payload (Diskstore.Block_file.read_page file 1)))

(* The same write sequence through a write-back pool (after flush) and
   through a pool-free (capacity 0) path must leave identical files. *)
let test_pool_flush_byte_identical () =
  let sequence pool =
    for i = 0 to 9 do
      Diskstore.Buffer_pool.write_page pool i
        (Bytes.of_string (Printf.sprintf "v1-page-%d" i))
    done;
    (* overwrite some resident and some evicted pages *)
    List.iter
      (fun i ->
        Diskstore.Buffer_pool.write_page pool i
          (Bytes.of_string (Printf.sprintf "v2-page-%d" i)))
      [ 3; 0; 7 ];
    ignore (pool_read pool 5);
    Diskstore.Buffer_pool.flush pool
  in
  let run ~policy ~capacity =
    with_pool ~policy ~capacity (fun path _stats pool ->
        sequence pool;
        read_file path)
  in
  let reference = run ~policy:Diskstore.Buffer_pool.Lru ~capacity:0 in
  check_bool "lru pool file identical" true
    (run ~policy:Diskstore.Buffer_pool.Lru ~capacity:3 = reference);
  check_bool "clock pool file identical" true
    (run ~policy:Diskstore.Buffer_pool.Clock ~capacity:3 = reference);
  check_bool "big pool file identical" true
    (run ~policy:Diskstore.Buffer_pool.Lru ~capacity:64 = reference)

(* ---------- Emio.Store over the file backend ---------- *)

let test_store_over_file_backend () =
  with_pool ~policy:Diskstore.Buffer_pool.Lru ~capacity:4
    (fun _path stats pool ->
      let fb = Diskstore.File_backend.create pool in
      let store =
        Emio.Store.create ~stats ~block_size:4 ~codec:Emio.Codec.int
          ~backend:(Diskstore.File_backend.backend fb) ()
      in
      check_bool "external" true (Emio.Store.is_external store);
      let id0 = Emio.Store.alloc store [| 1; 2; 3; 4 |] in
      let id1 = Emio.Store.alloc store [| 5; 6 |] in
      check "ids sequential" 1 id1;
      check "blocks used" 2 (Emio.Store.blocks_used store);
      Alcotest.(check (array int)) "read back" [| 1; 2; 3; 4 |]
        (Emio.Store.read store id0);
      Emio.Store.write store id1 [| 9; 9; 9 |];
      Alcotest.(check (array int)) "after write" [| 9; 9; 9 |]
        (Emio.Store.read store id1);
      Emio.Store.flush store;
      check_bool "physical bytes written" true
        (Emio.Io_stats.bytes_written stats > 0))

(* ---------- Snapshots ---------- *)

let build_points seed n =
  let rng = Workload.rng seed in
  Workload.uniform2 rng ~n ~range:100.

let sorted_pts l =
  List.sort compare (List.map (fun p -> (Geom.Point2.x p, Geom.Point2.y p)) l)

let expect_loaded = function
  | Ok v -> v
  | Error e -> Alcotest.failf "load failed: %a" Diskstore.Snapshot.pp_error e

let test_snapshot_h2_roundtrip () =
  let points = build_points 4242 600 in
  let stats = Emio.Io_stats.create () in
  let h2 = Core.Halfspace2d.build ~stats ~block_size:16 points in
  let path = temp_path () in
  Core.Halfspace2d.save_snapshot h2 ~path ~meta:"n=600" ~page_size:512 ();
  let stats2 = Emio.Io_stats.create () in
  let loaded, info =
    expect_loaded (Core.Halfspace2d.of_snapshot ~stats:stats2 ~cache_pages:8 path)
  in
  Alcotest.(check string) "kind" Core.Halfspace2d.snapshot_kind
    info.Diskstore.Snapshot.kind;
  Alcotest.(check string) "meta" "n=600" info.Diskstore.Snapshot.meta;
  check "block size" 16 info.Diskstore.Snapshot.block_size;
  check "same length" (Core.Halfspace2d.length h2)
    (Core.Halfspace2d.length loaded);
  Emio.Io_stats.reset stats2;
  let rng = Workload.rng 777 in
  for _ = 1 to 30 do
    let slope, icept =
      Workload.halfplane_with_selectivity rng points ~fraction:0.05
    in
    let expect = sorted_pts (Core.Halfspace2d.query h2 ~slope ~icept) in
    let got = sorted_pts (Core.Halfspace2d.query loaded ~slope ~icept) in
    check_bool "same result set" true (expect = got)
  done;
  check_bool "file pages actually read" true (Emio.Io_stats.reads stats2 > 0);
  check_bool "bytes accounted" true (Emio.Io_stats.bytes_read stats2 > 0)

let prop_snapshot_h2_queries =
  QCheck.Test.make ~name:"snapshot h2 ≡ in-memory h2 on random halfplanes"
    ~count:30
    QCheck.(
      triple (int_range 0 1000) (float_range (-3.) 3.) (float_range (-120.) 120.))
    (fun (seed, slope, icept) ->
      (* one shared structure per property run would hide rebuild bugs;
         a fresh small one per case keeps it honest and fast *)
      let points = build_points (10_000 + seed) 120 in
      let stats = Emio.Io_stats.create () in
      let h2 = Core.Halfspace2d.build ~stats ~block_size:8 points in
      let path = temp_path () in
      Core.Halfspace2d.save_snapshot h2 ~path ~page_size:256 ();
      let stats2 = Emio.Io_stats.create () in
      match Core.Halfspace2d.of_snapshot ~stats:stats2 ~cache_pages:4 path with
      | Error _ -> false
      | Ok (loaded, _) ->
          sorted_pts (Core.Halfspace2d.query h2 ~slope ~icept)
          = sorted_pts (Core.Halfspace2d.query loaded ~slope ~icept))

let test_snapshot_rtree_and_scan () =
  let points = build_points 99 500 in
  let stats = Emio.Io_stats.create () in
  let rt = Baselines.Rtree.build ~stats ~block_size:16 points in
  let sc = Baselines.Linear_scan.build ~stats ~block_size:16 points in
  let rt_path = temp_path () and sc_path = temp_path () in
  Baselines.Rtree.save_snapshot rt ~path:rt_path ();
  Baselines.Linear_scan.save_snapshot sc ~path:sc_path ();
  let s2 = Emio.Io_stats.create () in
  let rt', _ = expect_loaded (Baselines.Rtree.of_snapshot ~stats:s2 rt_path) in
  let sc_any, _ =
    expect_loaded (Baselines.Linear_scan.of_snapshot ~stats:s2 sc_path)
  in
  let sc' =
    match sc_any with
    | Baselines.Linear_scan.T2 s -> s
    | Baselines.Linear_scan.Td _ -> Alcotest.fail "expected a 2-d scan"
  in
  let rng = Workload.rng 31 in
  for _ = 1 to 10 do
    let slope, icept =
      Workload.halfplane_with_selectivity rng points ~fraction:0.1
    in
    check_bool "rtree same" true
      (sorted_pts (Baselines.Rtree.query_halfplane rt ~slope ~icept)
      = sorted_pts (Baselines.Rtree.query_halfplane rt' ~slope ~icept));
    check "scan same count"
      (Baselines.Linear_scan.query_count sc ~slope ~icept)
      (Baselines.Linear_scan.query_count sc' ~slope ~icept)
  done

let test_snapshot_kind_mismatch () =
  let points = build_points 7 100 in
  let stats = Emio.Io_stats.create () in
  let sc = Baselines.Linear_scan.build ~stats ~block_size:8 points in
  let path = temp_path () in
  Baselines.Linear_scan.save_snapshot sc ~path ();
  match Core.Halfspace2d.of_snapshot ~stats path with
  | Error (Diskstore.Snapshot.Kind_mismatch { expected; got }) ->
      Alcotest.(check string) "expected" Core.Halfspace2d.snapshot_kind expected;
      Alcotest.(check string) "got" Baselines.Linear_scan.snapshot_kind got
  | Ok _ -> Alcotest.fail "kind mismatch not detected"
  | Error e -> Alcotest.failf "wrong error: %a" Diskstore.Snapshot.pp_error e

let saved_h2_snapshot () =
  let points = build_points 1234 300 in
  let stats = Emio.Io_stats.create () in
  let h2 = Core.Halfspace2d.build ~stats ~block_size:16 points in
  let path = temp_path () in
  Core.Halfspace2d.save_snapshot h2 ~path ~page_size:256 ();
  path

let load_h2 path =
  Core.Halfspace2d.of_snapshot ~stats:(Emio.Io_stats.create ()) path

let test_snapshot_bad_magic () =
  let path = temp_path () in
  write_file path (String.make 4096 'Z');
  (match load_h2 path with
  | Error Diskstore.Snapshot.Bad_magic -> ()
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error e -> Alcotest.failf "wrong error: %a" Diskstore.Snapshot.pp_error e);
  write_file path "short";
  match load_h2 path with
  | Error (Diskstore.Snapshot.Truncated _) -> ()
  | Ok _ -> Alcotest.fail "5-byte file accepted"
  | Error e -> Alcotest.failf "wrong error: %a" Diskstore.Snapshot.pp_error e

(* every truncation point must yield a typed error, never a crash or a
   silently wrong structure *)
let test_snapshot_truncation_corpus () =
  let path = saved_h2_snapshot () in
  let whole = read_file path in
  let n = String.length whole in
  List.iter
    (fun keep ->
      let keep = min keep (n - 1) in
      let stub = temp_path () in
      write_file stub (String.sub whole 0 keep);
      match load_h2 stub with
      | Error
          ( Diskstore.Snapshot.Truncated _ | Diskstore.Snapshot.Bad_checksum _
          | Diskstore.Snapshot.Bad_header _ | Diskstore.Snapshot.Bad_magic
          | Diskstore.Snapshot.Bad_section_crc _ ) ->
          ()
      | Ok _ -> Alcotest.failf "truncation to %d bytes accepted" keep
      | Error e ->
          Alcotest.failf "truncation to %d: wrong error %a" keep
            Diskstore.Snapshot.pp_error e)
    [ 0; 1; 15; 100; 256; 300; n / 2; n - 200; n - 1 ]

(* flipping any single byte must be caught by a page CRC (or the header
   checks) at load time *)
let test_snapshot_flipped_byte_corpus () =
  let path = saved_h2_snapshot () in
  let whole = read_file path in
  let n = String.length whole in
  let offsets = [ 0; 9; 40; 257; 300; 512; n / 2; (3 * n) / 4; n - 10 ] in
  List.iter
    (fun off ->
      let off = min off (n - 1) in
      let corrupt = Bytes.of_string whole in
      Bytes.set corrupt off
        (Char.chr (Char.code (Bytes.get corrupt off) lxor 0x01));
      let stub = temp_path () in
      write_file stub (Bytes.to_string corrupt);
      match load_h2 stub with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "flipped byte at %d accepted" off)
    offsets

(* a v1 (closure-marshalled) snapshot must be rejected with the typed
   Unsupported_version error, not misparsed *)
let test_snapshot_v1_rejected () =
  let path = saved_h2_snapshot () in
  let raw = Bytes.of_string (read_file path) in
  (* the version u32 sits at file offset 16 (8-byte page header, then
     the 8-byte magic); rewrite it to 1 and re-seal the header page's
     CRC so only the version check can fire *)
  Bytes.set raw 16 '\001';
  Bytes.set raw 17 '\000';
  Bytes.set raw 18 '\000';
  Bytes.set raw 19 '\000';
  let psz = 256 in
  let crc =
    Diskstore.Crc32.update
      (Diskstore.Crc32.update 0 raw ~pos:0 ~len:4)
      raw ~pos:8 ~len:(psz - 8)
  in
  Bytes.set raw 4 (Char.chr (crc land 0xFF));
  Bytes.set raw 5 (Char.chr ((crc lsr 8) land 0xFF));
  Bytes.set raw 6 (Char.chr ((crc lsr 16) land 0xFF));
  Bytes.set raw 7 (Char.chr ((crc lsr 24) land 0xFF));
  let stub = temp_path () in
  write_file stub (Bytes.to_string raw);
  match load_h2 stub with
  | Error (Diskstore.Snapshot.Unsupported_version 1) -> ()
  | Ok _ -> Alcotest.fail "v1 snapshot accepted"
  | Error e -> Alcotest.failf "wrong error: %a" Diskstore.Snapshot.pp_error e

let test_snapshot_load_is_cold_process_safe () =
  (* the load path must not depend on any state of the saving run:
     simulate a "fresh process" by only using the path *)
  let path = saved_h2_snapshot () in
  let points = build_points 1234 300 in
  let stats = Emio.Io_stats.create () in
  let reference = Core.Halfspace2d.build ~stats ~block_size:16 points in
  let loaded, _ = expect_loaded (load_h2 path) in
  let rng = Workload.rng 5150 in
  for _ = 1 to 10 do
    let slope, icept =
      Workload.halfplane_with_selectivity rng points ~fraction:0.03
    in
    check "query count equal"
      (Core.Halfspace2d.query_count reference ~slope ~icept)
      (Core.Halfspace2d.query_count loaded ~slope ~icept)
  done

(* ---------- corruption corpora across every snapshot kind ----------

   For each registered snapshot-capable structure: save a small
   instance, check a clean reopen answers exactly what the linear-scan
   oracle answers, then hit the file with the truncation and
   flipped-byte corpora — every damaged variant must yield a typed
   error, never a crash or a silently wrong structure. *)

module Index = Lcsearch_index.Index
module Registry = Lcsearch_index.Registry
module Workloads = Lcsearch_index.Workloads

let sorted_rows rows = List.sort compare (List.map Array.to_list rows)

let snapshot_corpus_case (module M : Index.S) () =
  match M.snapshot with
  | None -> ()
  | Some ops ->
      let dim = List.hd M.dims in
      let rng = Workload.rng (4000 + (Hashtbl.hash M.name mod 101)) in
      let ds =
        Workloads.dataset rng ~kind:Workloads.Uniform ~dim ~n:400
          (module M : Index.S)
      in
      let qs = Workloads.queries rng ds ~fraction:0.08 ~count:4 in
      let stats = Emio.Io_stats.create () in
      let params = { Index.default_params with Index.block_size = 16 } in
      let t = M.build ~params ~stats ds in
      let path = temp_path () in
      ops.Index.save t ~path ~meta:"corpus" ~page_size:(Some 512);
      let load p =
        ops.Index.load
          ~stats:(Emio.Io_stats.create ())
          ~policy:Diskstore.Buffer_pool.Lru ~cache_pages:8 p
      in
      let (module Oracle : Index.S) = Registry.find_exn "scan" in
      let oracle = Oracle.build ~params:Index.default_params ~stats ds in
      (match load path with
      | Error e ->
          Alcotest.failf "%s: load failed: %a" M.name Diskstore.Snapshot.pp_error
            e
      | Ok (loaded, info) ->
          Alcotest.(check string) (M.name ^ ": kind") ops.Index.snapshot_kind
            info.Diskstore.Snapshot.kind;
          List.iteri
            (fun i q ->
              check_bool
                (Printf.sprintf "%s query %d: reopened = oracle" M.name i)
                true
                (sorted_rows (M.query loaded q)
                = sorted_rows (Oracle.query oracle q)))
            qs);
      let whole = read_file path in
      let n = String.length whole in
      List.iter
        (fun keep ->
          let keep = max 0 (min keep (n - 1)) in
          let stub = temp_path () in
          write_file stub (String.sub whole 0 keep);
          match load stub with
          | Error
              ( Diskstore.Snapshot.Truncated _
              | Diskstore.Snapshot.Bad_checksum _
              | Diskstore.Snapshot.Bad_header _ | Diskstore.Snapshot.Bad_magic
              | Diskstore.Snapshot.Bad_section_crc _ ) ->
              ()
          | Ok _ ->
              Alcotest.failf "%s: truncation to %d bytes accepted" M.name keep
          | Error e ->
              Alcotest.failf "%s: truncation to %d: wrong error %a" M.name keep
                Diskstore.Snapshot.pp_error e)
        [ 0; 1; 15; 100; 256; 300; n / 2; n - 200; n - 1 ];
      List.iter
        (fun off ->
          let off = max 0 (min off (n - 1)) in
          let corrupt = Bytes.of_string whole in
          Bytes.set corrupt off
            (Char.chr (Char.code (Bytes.get corrupt off) lxor 0x01));
          let stub = temp_path () in
          write_file stub (Bytes.to_string corrupt);
          match load stub with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "%s: flipped byte at %d accepted" M.name off)
        [ 0; 9; 40; 257; 300; 512; n / 2; (3 * n) / 4; n - 10 ];
      (* paths that are no snapshot file at all — a directory, a path
         that cannot be opened — are typed errors too, never exceptions *)
      List.iter
        (fun p ->
          (match load p with
          | Error (Diskstore.Snapshot.Bad_header _) -> ()
          | Ok _ -> Alcotest.failf "%s: %s accepted" M.name p
          | Error e ->
              Alcotest.failf "%s: %s: wrong error %a" M.name p
                Diskstore.Snapshot.pp_error e);
          match Diskstore.Snapshot.read_info p with
          | Error (Diskstore.Snapshot.Bad_header _) -> ()
          | _ -> Alcotest.failf "read_info %s: expected Bad_header" p)
        [ Filename.get_temp_dir_name (); path ^ ".missing" ]

let snapshot_corpus_tests =
  List.filter_map
    (fun (module M : Index.S) ->
      match M.snapshot with
      | None -> None
      | Some ops ->
          Some
            (Alcotest.test_case
               (Printf.sprintf "corpus %s" ops.Index.snapshot_kind)
               `Quick
               (snapshot_corpus_case (module M : Index.S))))
    (Registry.all ())

let () =
  Alcotest.run "diskstore"
    [
      ("crc32", [ Alcotest.test_case "vectors" `Quick test_crc32_vectors ]);
      ( "block_file",
        [
          Alcotest.test_case "roundtrip" `Quick test_block_file_roundtrip;
          Alcotest.test_case "corruption" `Quick test_block_file_corruption;
        ] );
      ( "buffer_pool",
        [
          Alcotest.test_case "lru eviction order" `Quick
            test_pool_lru_eviction_order;
          Alcotest.test_case "clock second chance" `Quick
            test_pool_clock_second_chance;
          Alcotest.test_case "dirty write-back" `Quick
            test_pool_dirty_writeback_on_eviction;
          Alcotest.test_case "flush byte-identical" `Quick
            test_pool_flush_byte_identical;
        ] );
      ( "file_backend",
        [ Alcotest.test_case "store roundtrip" `Quick test_store_over_file_backend ]
      );
      ( "snapshot",
        [
          Alcotest.test_case "h2 roundtrip" `Quick test_snapshot_h2_roundtrip;
          QCheck_alcotest.to_alcotest prop_snapshot_h2_queries;
          Alcotest.test_case "rtree and scan" `Quick
            test_snapshot_rtree_and_scan;
          Alcotest.test_case "kind mismatch" `Quick test_snapshot_kind_mismatch;
          Alcotest.test_case "bad magic" `Quick test_snapshot_bad_magic;
          Alcotest.test_case "truncation corpus" `Quick
            test_snapshot_truncation_corpus;
          Alcotest.test_case "flipped-byte corpus" `Quick
            test_snapshot_flipped_byte_corpus;
          Alcotest.test_case "v1 rejected" `Quick test_snapshot_v1_rejected;
          Alcotest.test_case "cold reopen" `Quick
            test_snapshot_load_is_cold_process_safe;
        ] );
      ("snapshot corpora", snapshot_corpus_tests);
    ]

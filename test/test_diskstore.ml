(* Tests for the persistent block store: CRC32, checksummed page I/O,
   the read-only buffer pool (LRU + CLOCK eviction), the file backend
   behind Emio.Store, and snapshot save/load robustness. *)

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

let snapshot_error = Diskstore.Snapshot.error_to_string

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
      check "writes" 3 (Emio.Io_stats.writes stats);
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

(* A reopened page file is opened read-only: a write through it fails
   and leaves the page as it was. *)
let test_block_file_reopen_read_only () =
  with_block_file (fun path _stats file ->
      Diskstore.Block_file.write_page file 0 (Bytes.of_string "kept");
      let ro =
        Diskstore.Block_file.open_existing ~stats:(Emio.Io_stats.create ())
          ~path ~page_size:128 ()
      in
      (match Diskstore.Block_file.write_page ro 0 (Bytes.of_string "over") with
      | () -> Alcotest.fail "a write through a reopened file must fail"
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> ());
      Alcotest.(check string)
        "page intact" "kept"
        (expect_payload (Diskstore.Block_file.read_page ro 0));
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

(* drop empties the pool, and the next read of a dropped page is a
   fault again; nothing is ever written. *)
let test_pool_drop_empties () =
  with_pool ~policy:Diskstore.Buffer_pool.Lru ~capacity:2
    (fun _path stats pool ->
      let file = Diskstore.Buffer_pool.file pool in
      for i = 0 to 1 do
        Diskstore.Block_file.write_page file i
          (Bytes.of_string (Printf.sprintf "page%d" i))
      done;
      Emio.Io_stats.reset stats;
      ignore (pool_read pool 0);
      ignore (pool_read pool 1);
      ignore (pool_read pool 0);
      check "one hit before the drop" 1 (Emio.Io_stats.cache_hits stats);
      Diskstore.Buffer_pool.drop pool;
      Alcotest.(check string) "dropped page reads back" "page0"
        (pool_read pool 0);
      check "a fault after the drop" 3 (Emio.Io_stats.reads stats);
      check "no hit after the drop" 1 (Emio.Io_stats.cache_hits stats);
      check "a drop is not an eviction" 0 (Emio.Io_stats.evictions stats);
      check "no writes" 0 (Emio.Io_stats.writes stats))

(* A pool of capacity 0 caches nothing: every read is a fault. *)
let test_pool_capacity_zero () =
  with_pool ~policy:Diskstore.Buffer_pool.Clock ~capacity:0
    (fun _path stats pool ->
      Diskstore.Block_file.write_page (Diskstore.Buffer_pool.file pool) 0
        (Bytes.of_string "page0");
      Emio.Io_stats.reset stats;
      for _ = 1 to 3 do
        Alcotest.(check string) "read back" "page0" (pool_read pool 0)
      done;
      check "every read a fault" 3 (Emio.Io_stats.reads stats);
      check "no hits" 0 (Emio.Io_stats.cache_hits stats);
      check "no evictions" 0 (Emio.Io_stats.evictions stats))

(* ---------- Snapshots ---------- *)

let build_points seed n =
  let rng = Workload.rng seed in
  Workload.uniform2 rng ~n ~range:100.

let sorted_pts l =
  List.sort compare (List.map (fun p -> (Geom.Point2.x p, Geom.Point2.y p)) l)

let h2_format = Core.Halfspace2d.snapshot
let save_h2 = Diskstore.Snapshot.save_as h2_format
let open_h2 = Diskstore.Snapshot.open_as h2_format

let expect_loaded = function
  | Ok v -> v
  | Error e -> Alcotest.failf "load failed: %s" (snapshot_error e)

(* ---------- Emio.Store over the file backend ---------- *)

(* A bare int store as a snapshot: its blocks are the payload and the
   skeleton is its block size, so a reopen is a Store.of_backend over
   the file. *)
let int_store_format =
  Diskstore.Snapshot.format ~kind:"test.ints" ~version:1 ~codec:Emio.Codec.int
    ~payload:(fun s -> (Emio.Store.block_size s, Emio.Store.export_bytes s))
    ~to_skeleton:Emio.Store.block_size
    ~of_skeleton:(fun ~stats ~backend block_size ->
      Emio.Store.of_backend ~stats ~block_size ~codec:Emio.Codec.int backend)

(* Reads and drop_cache through a reopened store, at pool sizes 0 and
   2, answer the saved blocks, never write, and leave the file's bytes
   as they were. *)
let test_store_over_file_backend () =
  let blocks =
    Array.init 6 (fun i -> Array.init (1 + (i mod 4)) (fun j -> (100 * i) + j))
  in
  let store =
    Emio.Store.create ~stats:(Emio.Io_stats.create ()) ~block_size:4
      ~codec:Emio.Codec.int ()
  in
  Array.iter (fun b -> ignore (Emio.Store.alloc store b)) blocks;
  let path = temp_path () in
  Diskstore.Snapshot.save_as int_store_format store ~path ~page_size:128 ();
  let saved = read_file path in
  List.iter
    (fun cache_pages ->
      let stats = Emio.Io_stats.create () in
      let reopened, _ =
        expect_loaded
          (Diskstore.Snapshot.open_as int_store_format ~stats ~cache_pages path)
      in
      check "blocks used" 6 (Emio.Store.blocks_used reopened);
      Emio.Io_stats.reset stats;
      List.iter
        (fun id ->
          Alcotest.(check (array int))
            (Printf.sprintf "cache_pages %d: block %d" cache_pages id)
            blocks.(id)
            (Emio.Store.read reopened id);
          if id = 3 then Emio.Store.drop_cache reopened)
        [ 0; 1; 0; 3; 5; 3; 2; 4; 0 ];
      check_bool "pages read" true (Emio.Io_stats.reads stats > 0);
      check (Printf.sprintf "cache_pages %d: no writes" cache_pages) 0
        (Emio.Io_stats.writes stats);
      check_bool
        (Printf.sprintf "cache_pages %d: file bytes unchanged" cache_pages)
        true
        (read_file path = saved))
    [ 0; 2 ]

let test_snapshot_h2_roundtrip () =
  let points = build_points 4242 600 in
  let stats = Emio.Io_stats.create () in
  let h2 = Core.Halfspace2d.build ~stats ~block_size:16 points in
  let path = temp_path () in
  save_h2 h2 ~path ~meta:"n=600" ~page_size:512 ();
  let stats2 = Emio.Io_stats.create () in
  let loaded, info =
    expect_loaded (open_h2 ~stats:stats2 ~cache_pages:8 path)
  in
  Alcotest.(check string) "kind" "lcsearch.h2"
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
      save_h2 h2 ~path ~page_size:256 ();
      let stats2 = Emio.Io_stats.create () in
      match open_h2 ~stats:stats2 ~cache_pages:4 path with
      | Error _ -> false
      | Ok (loaded, _) ->
          sorted_pts (Core.Halfspace2d.query h2 ~slope ~icept)
          = sorted_pts (Core.Halfspace2d.query loaded ~slope ~icept))

let rtree_format = Baselines.Rtree.snapshot_format ~kind:"lcsearch.rtree"

let test_snapshot_rtree_and_scan () =
  let points = build_points 99 500 in
  let stats = Emio.Io_stats.create () in
  let rt = Baselines.Rtree.build ~stats ~block_size:16 points in
  let sc = Baselines.Linear_scan.build ~stats ~block_size:16 points in
  let rt_path = temp_path () and sc_path = temp_path () in
  Diskstore.Snapshot.save_as rtree_format rt ~path:rt_path ();
  Diskstore.Snapshot.save_as Baselines.Linear_scan.snapshot
    (Baselines.Linear_scan.T2 sc) ~path:sc_path ();
  let s2 = Emio.Io_stats.create () in
  let rt', _ =
    expect_loaded (Diskstore.Snapshot.open_as rtree_format ~stats:s2 rt_path)
  in
  let sc_any, _ =
    expect_loaded
      (Diskstore.Snapshot.open_as Baselines.Linear_scan.snapshot ~stats:s2
         sc_path)
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
  Diskstore.Snapshot.save_as Baselines.Linear_scan.snapshot
    (Baselines.Linear_scan.T2 sc) ~path ();
  match Diskstore.Snapshot.open_as Core.Halfspace2d.snapshot ~stats path with
  | Error (Diskstore.Snapshot.Kind_mismatch { expected; got }) ->
      Alcotest.(check string) "expected" "lcsearch.h2" expected;
      Alcotest.(check string) "got" "lcsearch.scan" got
  | Ok _ -> Alcotest.fail "kind mismatch not detected"
  | Error e -> Alcotest.failf "wrong error: %s" (snapshot_error e)

let saved_h2_snapshot () =
  let points = build_points 1234 300 in
  let stats = Emio.Io_stats.create () in
  let h2 = Core.Halfspace2d.build ~stats ~block_size:16 points in
  let path = temp_path () in
  save_h2 h2 ~path ~page_size:256 ();
  path

let load_h2 path =
  open_h2 ~stats:(Emio.Io_stats.create ()) path

let test_snapshot_bad_magic () =
  let path = temp_path () in
  write_file path (String.make 4096 'Z');
  (match load_h2 path with
  | Error Diskstore.Snapshot.Bad_magic -> ()
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (snapshot_error e));
  write_file path "short";
  match load_h2 path with
  | Error (Diskstore.Snapshot.Truncated _) -> ()
  | Ok _ -> Alcotest.fail "5-byte file accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (snapshot_error e)

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
          Alcotest.failf "truncation to %d: wrong error %s" keep
            (snapshot_error e))
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

(* Load reads every page after the header exactly once (table, then
   payload, then skeleton, ascending) and verifies each as it goes: a
   flipped byte in a table page, a payload page or the last skeleton
   page is reported as that page's checksum failure, on a plain and on
   a resident reopen alike. *)
let with_resident resident f =
  Diskstore.File_backend.set_resident_on_reopen resident;
  Fun.protect
    ~finally:(fun () -> Diskstore.File_backend.set_resident_on_reopen false)
    f

let test_snapshot_pages_verified_once () =
  let path = saved_h2_snapshot () in
  let info =
    match Diskstore.Snapshot.read_info path with
    | Ok info -> info
    | Error e -> Alcotest.failf "read_info: %s" (snapshot_error e)
  in
  let psz = info.Diskstore.Snapshot.page_size in
  let cap = psz - Diskstore.Block_file.header_bytes in
  let table_pages = ((8 * info.Diskstore.Snapshot.n_blocks) + cap - 1) / cap in
  let last = info.Diskstore.Snapshot.total_pages - 1 in
  List.iter
    (fun resident ->
      let mode = if resident then "resident" else "plain" in
      with_resident resident (fun () ->
          let stats = Emio.Io_stats.create () in
          (match
             open_h2 ~stats ~cache_pages:0 path
           with
          | Ok _ -> ()
          | Error e ->
              Alcotest.failf "%s load: %s" mode (snapshot_error e));
          check (mode ^ ": one read per page after the header") last
            (Emio.Io_stats.reads stats);
          List.iter
            (fun (section, page) ->
              let corrupt = Bytes.of_string (read_file path) in
              let off = (page * psz) + 20 in
              Bytes.set corrupt off
                (Char.chr (Char.code (Bytes.get corrupt off) lxor 0x01));
              let stub = temp_path () in
              write_file stub (Bytes.to_string corrupt);
              match load_h2 stub with
              | Error (Diskstore.Snapshot.Bad_checksum { page = got }) ->
                  check (Printf.sprintf "%s: %s page" mode section) page got
              | Ok _ -> Alcotest.failf "%s: flipped %s page accepted" mode section
              | Error e ->
                  Alcotest.failf "%s: flipped %s page: wrong error %s" mode
                    section (snapshot_error e))
            [ ("table", 1); ("payload", 1 + table_pages); ("last skeleton", last) ]))
    [ false; true ]

(* Re-seal page [page]'s CRC (over the length field and the body) so
   only the checks behind the page checksums can fire. *)
let reseal raw ~psz page =
  let base = page * psz in
  let crc =
    Diskstore.Crc32.update
      (Diskstore.Crc32.update 0 raw ~pos:base ~len:4)
      raw ~pos:(base + 8) ~len:(psz - 8)
  in
  Bytes.set_int32_le raw (base + 4) (Int32.of_int crc)

(* Because load reads only the sections, it must prove they tile the
   file: a block table whose spans leave a page out is rejected even
   when every page and section checksum holds. *)
let test_snapshot_untiled_table_rejected () =
  let path = saved_h2_snapshot () in
  let raw = Bytes.of_string (read_file path) in
  let psz = 256 in
  let table_pages =
    let n = Int32.to_int (Bytes.get_int32_le raw (8 + 20)) in
    ((8 * n) + psz - 9) / (psz - 8)
  in
  (* block 0 now claims to start one page in, skipping page 0 of the
     payload section *)
  Bytes.set_int32_le raw (psz + 8) 1l;
  reseal raw ~psz 1;
  let table = Buffer.create 256 in
  for p = 1 to table_pages do
    let len = Int32.to_int (Bytes.get_int32_le raw (p * psz)) in
    Buffer.add_subbytes table raw ((p * psz) + 8) len
  done;
  (* the header's table CRC sits at payload offset 36 *)
  Bytes.set_int32_le raw (8 + 36)
    (Int32.of_int (Diskstore.Crc32.digest_string (Buffer.contents table)));
  reseal raw ~psz 0;
  let stub = temp_path () in
  write_file stub (Bytes.to_string raw);
  match load_h2 stub with
  | Error (Diskstore.Snapshot.Bad_header _) -> ()
  | Ok _ -> Alcotest.fail "untiled block table accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (snapshot_error e)

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
  | Error e -> Alcotest.failf "wrong error: %s" (snapshot_error e)

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

(* A save replaces the file atomically: an instance already reading
   the old file from disk (pool disabled, so every query goes to the
   file) keeps answering from the old bytes after the path is
   overwritten (a save that truncated the file in place would break
   every one of its reads), and a fresh open sees the new structure. *)
let test_snapshot_save_under_live_reader () =
  let build n =
    let points = build_points (5000 + n) n in
    let stats = Emio.Io_stats.create () in
    (points, Core.Halfspace2d.build ~stats ~block_size:16 points)
  in
  let points, old_h2 = build 600 in
  let path = temp_path () in
  save_h2 old_h2 ~path ();
  let live, _ =
    expect_loaded (open_h2 ~stats:(Emio.Io_stats.create ()) ~cache_pages:0 path)
  in
  let rng = Workload.rng 2024 in
  let queries =
    List.init 20 (fun i ->
        Workload.halfplane_with_selectivity rng points
          ~fraction:(float_of_int (i + 1) /. 21.))
  in
  let counts t =
    List.map
      (fun (slope, icept) -> Core.Halfspace2d.query_count t ~slope ~icept)
      queries
  in
  let before = counts live in
  Alcotest.(check (list int)) "reopened = built" (counts old_h2) before;
  let _, new_h2 = build 900 in
  save_h2 new_h2 ~path ();
  Alcotest.(check (list int)) "live reader unaffected" before (counts live);
  let fresh, _ =
    expect_loaded (open_h2 ~stats:(Emio.Io_stats.create ()) path)
  in
  check "fresh open sees the new snapshot" 900 (Core.Halfspace2d.length fresh);
  check_bool "no temp file left" false (Sys.file_exists (path ^ ".tmp"))

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
  let ops = M.snapshot in
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
      Alcotest.failf "%s: load failed: %s" M.name (snapshot_error e)
  | Ok (loaded, info) ->
      Alcotest.(check string) (M.name ^ ": kind") ops.Index.snapshot_kind
        info.Diskstore.Snapshot.kind;
      Alcotest.(check int) (M.name ^ ": reopened space_blocks")
        (M.space_blocks t) (M.space_blocks loaded);
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
          Alcotest.failf "%s: truncation to %d: wrong error %s" M.name keep
            (snapshot_error e))
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
          Alcotest.failf "%s: %s: wrong error %s" M.name p
            (snapshot_error e));
      match Diskstore.Snapshot.read_info p with
      | Error (Diskstore.Snapshot.Bad_header _) -> ()
      | _ -> Alcotest.failf "read_info %s: expected Bad_header" p)
    [ Filename.get_temp_dir_name (); path ^ ".missing" ]

(* A file that passes every CRC but whose skeleton is junk fails in
   skeleton decoding, after the file is open: the open must report
   [Bad_payload] and close the file again, for every kind.  The
   descriptor count of this process must not grow over many such
   opens. *)
let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_junk_skeleton_closes_file () =
  let path = temp_path () in
  let fds = open_fds () in
  List.iter
    (fun (module M : Index.S) ->
      let ops = M.snapshot in
      Diskstore.Snapshot.save ~path ~kind:ops.Index.snapshot_kind
        ~block_size:16 ~payload:[||]
        ~skeleton:(Bytes.of_string "not a skeleton") ();
      for _ = 1 to 200 do
        match
          ops.Index.load ~stats:(Emio.Io_stats.create ())
            ~policy:Diskstore.Buffer_pool.Lru ~cache_pages:4 path
        with
        | Error (Diskstore.Snapshot.Bad_payload _) -> ()
        | Ok _ -> Alcotest.failf "%s: junk skeleton accepted" M.name
        | Error e ->
            Alcotest.failf "%s: wrong error %s" M.name
              (snapshot_error e)
      done)
    (Registry.all ());
  check "no descriptor leaked" fds (open_fds ())

let snapshot_corpus_tests =
  List.map
    (fun (module M : Index.S) ->
      Alcotest.test_case
        (Printf.sprintf "corpus %s" M.snapshot.Index.snapshot_kind)
        `Quick
        (snapshot_corpus_case (module M : Index.S)))
    (Registry.all ())

let () =
  Alcotest.run "diskstore"
    [
      ("crc32", [ Alcotest.test_case "vectors" `Quick test_crc32_vectors ]);
      ( "block_file",
        [
          Alcotest.test_case "roundtrip" `Quick test_block_file_roundtrip;
          Alcotest.test_case "corruption" `Quick test_block_file_corruption;
          Alcotest.test_case "reopened read-only" `Quick
            test_block_file_reopen_read_only;
        ] );
      ( "buffer_pool",
        [
          Alcotest.test_case "lru eviction order" `Quick
            test_pool_lru_eviction_order;
          Alcotest.test_case "clock second chance" `Quick
            test_pool_clock_second_chance;
          Alcotest.test_case "drop empties the pool" `Quick
            test_pool_drop_empties;
          Alcotest.test_case "capacity 0 caches nothing" `Quick
            test_pool_capacity_zero;
        ] );
      ( "file_backend",
        [
          Alcotest.test_case "reopened store never writes" `Quick
            test_store_over_file_backend;
        ]
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
          Alcotest.test_case "each page verified once" `Quick
            test_snapshot_pages_verified_once;
          Alcotest.test_case "untiled block table" `Quick
            test_snapshot_untiled_table_rejected;
          Alcotest.test_case "cold reopen" `Quick
            test_snapshot_load_is_cold_process_safe;
          Alcotest.test_case "save under a live reader" `Quick
            test_snapshot_save_under_live_reader;
        ] );
      ( "snapshot corpora",
        Alcotest.test_case "junk skeleton closes the file" `Quick
          test_junk_skeleton_closes_file
        :: snapshot_corpus_tests );
    ]

(* The sharded scatter-gather layer: bit-equality with the unsharded
   structure for K in {1, 2, 4, 8} under both partitioners, build/query
   accounting that is deterministic across runs and domain counts, and
   the sharded directory snapshot format (roundtrip, corrupted
   manifest, corrupted shard file, missing shard file). *)

module Index = Lcsearch_index.Index
module Registry = Lcsearch_index.Registry
module Workloads = Lcsearch_index.Workloads
module Shard = Lcsearch_index.Shard
module Snapshot_path = Lcsearch_index.Snapshot_path
module Query_engine = Lcsearch_index.Query_engine

let sorted_rows rows = List.sort compare (List.map Array.to_list rows)

let temp_dir () =
  let path = Filename.temp_file "lcsearch_shard" ".snapdir" in
  Sys.remove path;
  let rec rm p =
    if Sys.file_exists p then
      if Sys.is_directory p then begin
        Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
        Sys.rmdir p
      end
      else Sys.remove p
  in
  at_exit (fun () -> try rm path with Sys_error _ -> ());
  path

let build_params = Index.default_params

let make_case ~inner ~dim ~kind ~n =
  let (module M : Index.S) = Registry.find_exn inner in
  let rng = Workload.rng (4242 + (31 * dim) + Hashtbl.hash inner mod 89) in
  let ds = Workloads.dataset rng ~kind ~dim ~n (module M : Index.S) in
  let qs = Workloads.queries rng ds ~fraction:0.05 ~count:4 in
  ((module M : Index.S), ds, qs)

let reported_ids (type a) (module M : Index.S with type t = a) (t : a) q =
  let r = Emio.Reporter.create () in
  let c = M.query_into t q r in
  (c, List.sort compare (Emio.Reporter.to_list r))

(* ---- conformance: sharded results bit-equal to unsharded ---- *)

let conformance_case ~inner ~dim ~kind ~partition ~shards () =
  let (module M : Index.S), ds, qs = make_case ~inner ~dim ~kind ~n:512 in
  let plain =
    M.build ~params:build_params ~stats:(Emio.Io_stats.create ()) ds
  in
  let (module Sh : Index.S) =
    Shard.make ~build_domains:2 ~inner:(module M) ~shards ~partition ()
  in
  Alcotest.(check string) "name is the inner's" M.name Sh.name;
  let sharded =
    Sh.build ~params:build_params ~stats:(Emio.Io_stats.create ()) ds
  in
  Alcotest.(check bool)
    "counters expose the shard count" true
    (List.assoc_opt "shards" (Sh.counters sharded) <> None);
  List.iteri
    (fun i q ->
      let label fmt =
        Printf.sprintf "%s d=%d %s K=%d %s q%d: %s" inner dim
          (Workloads.kind_name kind) shards
          (Shard.partition_name partition)
          i fmt
      in
      let want_rows = sorted_rows (M.query plain q) in
      Alcotest.(check bool)
        (label "rows") true
        (sorted_rows (Sh.query sharded q) = want_rows);
      Alcotest.(check int)
        (label "count") (M.query_count plain q)
        (Sh.query_count sharded q);
      let want_c, want_ids = reported_ids (module M) plain q in
      let got_c, got_ids = reported_ids (module Sh) sharded q in
      Alcotest.(check int) (label "query_into count") want_c got_c;
      Alcotest.(check bool) (label "global ids") true (want_ids = got_ids);
      Alcotest.(check int) (label "one id per answer") got_c
        (List.length got_ids))
    qs

(* ---- accounting: summed per-shard I/Os deterministic across runs
   and domain counts ---- *)

let query_costs (type a) (module M : Index.S with type t = a) (t : a) qs =
  List.map
    (fun q ->
      let ctx = Emio.Cost_ctx.create () in
      let c =
        Emio.Cost_ctx.with_ctx ctx (fun () -> M.query_count t q)
      in
      (c, Emio.Cost_ctx.reads ctx, Emio.Cost_ctx.writes ctx))
    qs

let test_cost_determinism () =
  let (module M : Index.S), ds, qs =
    make_case ~inner:"h2" ~dim:2 ~kind:Workloads.Uniform ~n:512
  in
  let runs =
    List.map
      (fun build_domains ->
        let (module Sh : Index.S) =
          Shard.make ~build_domains ~inner:(module M) ~shards:4
            ~partition:Shard.Str ()
        in
        let stats = Emio.Io_stats.create () in
        let ctx = Emio.Cost_ctx.create () in
        let t =
          Emio.Cost_ctx.with_ctx ctx (fun () ->
              Sh.build ~params:build_params ~stats ds)
        in
        ( Emio.Io_stats.total stats,
          Emio.Cost_ctx.total ctx,
          query_costs (module Sh) t qs ))
      [ 1; 2; 4 ]
  in
  match runs with
  | first :: rest ->
      let stats_total, ctx_total, costs = first in
      Alcotest.(check bool)
        "build charges the caller's Cost_ctx like its Io_stats" true
        (stats_total = ctx_total && stats_total > 0);
      List.iteri
        (fun i (st, ct, cs) ->
          Alcotest.(check int)
            (Printf.sprintf "run %d: build stats total" (i + 1))
            stats_total st;
          Alcotest.(check int)
            (Printf.sprintf "run %d: build ctx total" (i + 1))
            ctx_total ct;
          Alcotest.(check bool)
            (Printf.sprintf "run %d: per-query costs identical" (i + 1))
            true (cs = costs))
        rest
  | [] -> assert false

(* ---- STR pruning actually skips shards on a selective query ---- *)

let test_str_pruning () =
  let (module M : Index.S), ds, _ =
    make_case ~inner:"h2" ~dim:2 ~kind:Workloads.Uniform ~n:1024
  in
  let (module Sh : Index.S) =
    Shard.make ~inner:(module M) ~shards:8 ~partition:Shard.Str ()
  in
  let t = Sh.build ~params:build_params ~stats:(Emio.Io_stats.create ()) ds in
  (* y <= x - 1000: empty answer, every tile lies above the line *)
  ignore (Sh.query_count t { Index.a0 = -1000.; a = [| 1. |] } : int);
  let pruned = List.assoc "last_pruned" (Sh.counters t) in
  Alcotest.(check int) "all 8 tiles pruned on an empty halfplane" 8 pruned;
  ignore (Sh.query_count t { Index.a0 = 1000.; a = [| 1. |] } : int);
  let pruned = List.assoc "last_pruned" (Sh.counters t) in
  Alcotest.(check int) "no tile pruned on an all-points halfplane" 0 pruned

(* ---- sharded snapshots ---- *)

let save_sharded (type a) (module Sh : Index.S with type t = a) (t : a) path =
  let ops = Sh.snapshot in
  let meta =
    Snapshot_path.meta_to_string
      {
        structure = "test";
        n = 512;
        block_size = 64;
        kind = Workloads.Uniform;
        seed = 0;
        dim = 2;
        shards = None;
      }
  in
  ops.Index.save t ~path ~meta ~page_size:None;
  ops

let roundtrip_case ~inner ~dim ~partition () =
  let (module M : Index.S), ds, qs =
    make_case ~inner ~dim ~kind:Workloads.Uniform ~n:512
  in
  let (module Sh : Index.S) =
    Shard.make ~inner:(module M) ~shards:4 ~partition ()
  in
  let t = Sh.build ~params:build_params ~stats:(Emio.Io_stats.create ()) ds in
  let path = temp_dir () in
  ignore (save_sharded (module Sh) t path : _ Index.snapshot_ops);
  Alcotest.(check bool)
    "opener sees a sharded layout" true
    (match Snapshot_path.read_layout path with
    | Ok (Snapshot_path.Sharded _) -> true
    | _ -> false);
  (match Shard.read_manifest path with
  | Error e ->
      Alcotest.failf "manifest unreadable: %s"
        (Diskstore.Snapshot.error_to_string e)
  | Ok m ->
      Alcotest.(check int) "manifest shard count" 4 m.Shard.shards;
      Alcotest.(check int) "manifest total points" 512 m.Shard.total;
      Alcotest.(check bool)
        "manifest partition" true
        (m.Shard.partition = partition));
  match Shard.open_snapshot ~stats:(Emio.Io_stats.create ()) path with
  | Error e ->
      Alcotest.failf "open_snapshot failed: %s"
        (Diskstore.Snapshot.error_to_string e)
  | Ok (inst, info, _m) ->
      Alcotest.(check string)
        "aggregated info kind" Shard.sharded_kind info.Diskstore.Snapshot.kind;
      Alcotest.(check string) "instance name" M.name (Index.name inst);
      List.iteri
        (fun i q ->
          let label fmt =
            Printf.sprintf "%s d=%d %s reopened q%d: %s" inner dim
              (Shard.partition_name partition)
              i fmt
          in
          Alcotest.(check bool)
            (label "rows") true
            (sorted_rows (Index.query inst q) = sorted_rows (Sh.query t q));
          Alcotest.(check int)
            (label "count") (Sh.query_count t q)
            (Index.query_count inst q);
          let (Index.Instance ((module L), lt)) = inst in
          let want_c, want_ids = reported_ids (module Sh) t q in
          let got_c, got_ids = reported_ids (module L) lt q in
          Alcotest.(check int) (label "query_into count") want_c got_c;
          Alcotest.(check bool) (label "global ids") true (want_ids = got_ids))
        qs

let flip_byte path pos =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let b = Bytes.create len in
  really_input ic b 0 len;
  close_in ic;
  let pos = min pos (len - 1) in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xFF));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let build_saved_h2 () =
  let (module M : Index.S), ds, _ =
    make_case ~inner:"h2" ~dim:2 ~kind:Workloads.Uniform ~n:256
  in
  let (module Sh : Index.S) =
    Shard.make ~inner:(module M) ~shards:4 ~partition:Shard.Str ()
  in
  let t = Sh.build ~params:build_params ~stats:(Emio.Io_stats.create ()) ds in
  let path = temp_dir () in
  ignore (save_sharded (module Sh) t path : _ Index.snapshot_ops);
  path

let expect_open_error label path pred =
  match Shard.open_snapshot ~stats:(Emio.Io_stats.create ()) path with
  | Ok _ -> Alcotest.failf "%s: open_snapshot accepted damaged snapshot" label
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s" label (Diskstore.Snapshot.error_to_string e))
        true (pred e)

let test_corrupted_manifest () =
  let path = build_saved_h2 () in
  (* flip a byte inside the manifest payload (past the 4-byte CRC) *)
  flip_byte (Filename.concat path "MANIFEST") 32;
  expect_open_error "corrupted manifest" path (function
    | Diskstore.Snapshot.Bad_section_crc _ | Diskstore.Snapshot.Bad_payload _
      ->
        true
    | _ -> false)

(* A CRC-valid manifest whose id maps do not partition [0, total) is
   rejected at decode; so is a version-1 manifest, whose maps were
   empty for point-reporting inners. *)
let write_raw_manifest path payload =
  let buf = Buffer.create (Bytes.length payload + 4) in
  Emio.Codec.write_u32 buf (Diskstore.Crc32.digest payload);
  Buffer.add_bytes buf payload;
  Out_channel.with_open_bin (Filename.concat path "MANIFEST") (fun oc ->
      Buffer.output_buffer oc buf)

let test_bad_id_maps () =
  let edit_gids f (m : Shard.manifest) =
    let entries =
      Array.map
        (fun e -> { e with Shard.gids = Array.copy e.Shard.gids })
        m.entries
    in
    f m entries;
    Shard.(Emio.Codec.encode manifest_codec { m with entries })
  in
  List.iter
    (fun (label, encode) ->
      let path = build_saved_h2 () in
      (match Shard.read_manifest path with
      | Error e ->
          Alcotest.failf "%s: manifest unreadable: %s" label
            (Diskstore.Snapshot.error_to_string e)
      | Ok m -> write_raw_manifest path (encode m));
      expect_open_error label path (function
        | Diskstore.Snapshot.Bad_payload _ -> true
        | _ -> false))
    [
      ( "duplicate id",
        edit_gids (fun _ es ->
            es.(0).Shard.gids.(0) <- es.(1).Shard.gids.(0)) );
      ( "out-of-range id",
        edit_gids (fun m es -> es.(0).Shard.gids.(0) <- m.Shard.total) );
      ( "version 1 manifest",
        fun m ->
          let b =
            edit_gids
              (fun _ es ->
                Array.iteri
                  (fun i e -> es.(i) <- { e with Shard.gids = [||] })
                  es)
              m
          in
          (* the u32 version follows the u8-length-prefixed magic *)
          Bytes.set_int32_le b (1 + String.length Shard.sharded_kind) 1l;
          b );
    ]

let test_missing_shard_file () =
  let path = build_saved_h2 () in
  Sys.remove (Filename.concat path "shard-002.snap");
  expect_open_error "missing shard file" path (function
    | Diskstore.Snapshot.Missing_file "shard-002.snap" as e ->
        Diskstore.Snapshot.error_to_string e = "missing file shard-002.snap"
    | _ -> false)

let test_corrupted_shard_file () =
  let path = build_saved_h2 () in
  (* damage a shard body: the manifest's whole-file CRC must catch it
     before the inner loader even runs *)
  flip_byte (Filename.concat path "shard-001.snap") 9000;
  expect_open_error "corrupted shard file" path (function
    | Diskstore.Snapshot.Bad_section_crc { section } ->
        String.equal section "shard-001.snap"
    | _ -> false)

let test_non_sharded_path () =
  let sharded p =
    match Snapshot_path.read_layout p with
    | Ok (Snapshot_path.Sharded _) -> true
    | _ -> false
  in
  Alcotest.(check bool) "regular file is not sharded" false (sharded "dune");
  Alcotest.(check bool)
    "missing path is not sharded" false
    (sharded "/nonexistent/lcsearch");
  match Shard.read_manifest (Filename.get_temp_dir_name ()) with
  | Error (Diskstore.Snapshot.Bad_header _) -> ()
  | Error e ->
      Alcotest.failf "unexpected error: %s"
        (Diskstore.Snapshot.error_to_string e)
  | Ok _ -> Alcotest.fail "read_manifest on a plain directory must fail"

(* ---- batch engine drives a sharded instance like any other ---- *)

(* ---- the directory loader shared with Lsm ---- *)

let test_wrong_inner_kind () =
  let path = build_saved_h2 () in
  (* the MANIFEST's inner kind is checked before any part is read:
     with the parts gone, only that check can answer *)
  Array.iter
    (fun f ->
      if not (String.equal f "MANIFEST") then
        Sys.remove (Filename.concat path f))
    (Sys.readdir path);
  let (module P : Index.S) = Registry.find_exn "ptree" in
  let (module H : Index.S) = Registry.find_exn "h2" in
  let (module Sh : Index.S) =
    Shard.make ~inner:(module P) ~shards:4 ~partition:Shard.Str ()
  in
  match
    Sh.snapshot.Index.load ~stats:(Emio.Io_stats.create ())
      ~policy:Diskstore.Buffer_pool.Lru ~cache_pages:64 path
  with
  | Ok _ -> Alcotest.fail "a Shard(h2) directory loaded as Shard(ptree)"
  | Error e ->
      Alcotest.(check bool)
        (Diskstore.Snapshot.error_to_string e)
        true
        (e
        = Diskstore.Snapshot.Kind_mismatch
            {
              expected = P.snapshot.Index.snapshot_kind;
              got = H.snapshot.Index.snapshot_kind;
            })

(* Saving over a regular file is refused before anything is written. *)
let test_save_over_file () =
  let (module M : Index.S), ds, _ =
    make_case ~inner:"h2" ~dim:2 ~kind:Workloads.Uniform ~n:64
  in
  let (module Sh : Index.S) =
    Shard.make ~inner:(module M) ~shards:2 ~partition:Shard.Str ()
  in
  let t = Sh.build ~params:build_params ~stats:(Emio.Io_stats.create ()) ds in
  let path = temp_dir () in
  Out_channel.with_open_bin path (fun oc -> output_string oc "a file");
  (match save_sharded (module Sh) t path with
  | _ -> Alcotest.fail "saved over a regular file"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "still a regular file" false (Sys.is_directory path)

(* A reopened directory charges its queries to the sink it was opened
   with: the ambient delta over the queries equals the sum of their
   Cost_ctx reads and writes. *)
let test_reopened_accounting () =
  let _, _, qs = make_case ~inner:"h2" ~dim:2 ~kind:Workloads.Uniform ~n:256 in
  let path = build_saved_h2 () in
  let stats = Emio.Io_stats.create () in
  match Shard.open_snapshot ~stats path with
  | Error e ->
      Alcotest.failf "reopen failed: %s" (Diskstore.Snapshot.error_to_string e)
  | Ok (inst, _, _) ->
      let before = Emio.Io_stats.total stats in
      let scoped =
        List.fold_left
          (fun acc q ->
            let c = Emio.Cost_ctx.create () in
            ignore
              (Emio.Cost_ctx.with_ctx c (fun () -> Index.query_count inst q)
                : int);
            acc + Emio.Cost_ctx.reads c + Emio.Cost_ctx.writes c)
          0 qs
      in
      Alcotest.(check bool) "queries read blocks" true (scoped > 0);
      Alcotest.(check int) "ambient delta = Cost_ctx sum" scoped
        (Emio.Io_stats.total stats - before)

(* The pool splits over the shards, and a disabled pool stays
   disabled: repeated queries never hit with 0 pages, and do with 64. *)
let test_pool_split () =
  let (module M : Index.S), ds, qs =
    make_case ~inner:"h2" ~dim:2 ~kind:Workloads.Uniform ~n:256
  in
  let (module Sh : Index.S) =
    Shard.make ~inner:(module M) ~shards:4 ~partition:Shard.Str ()
  in
  let t = Sh.build ~params:build_params ~stats:(Emio.Io_stats.create ()) ds in
  let path = temp_dir () in
  ignore (save_sharded (module Sh) t path : _ Index.snapshot_ops);
  let hits cache_pages =
    let stats = Emio.Io_stats.create () in
    match Shard.open_snapshot ~cache_pages ~stats path with
    | Error e ->
        Alcotest.failf "reopen failed: %s"
          (Diskstore.Snapshot.error_to_string e)
    | Ok (inst, _, _) ->
        Emio.Io_stats.reset stats;
        for _ = 1 to 3 do
          List.iter (fun q -> ignore (Index.query_count inst q : int)) qs
        done;
        Emio.Io_stats.cache_hits stats
  in
  Alcotest.(check int) "no hits without a pool" 0 (hits 0);
  Alcotest.(check bool) "hits with 64 pages" true (hits 64 > 0)

let test_batch_engine () =
  let (module M : Index.S), ds, qs =
    make_case ~inner:"ptree" ~dim:2 ~kind:Workloads.Uniform ~n:512
  in
  let (module Sh : Index.S) =
    Shard.make ~inner:(module M) ~shards:4 ~partition:Shard.Hash ()
  in
  let t = Sh.build ~params:build_params ~stats:(Emio.Io_stats.create ()) ds in
  let inst = Index.Instance ((module Sh), t) in
  let qs = Array.of_list qs in
  let seq = Query_engine.run_batch ~domains:1 inst qs in
  let par = Query_engine.run_batch ~domains:2 inst qs in
  Array.iteri
    (fun i (r1 : Query_engine.cost) ->
      let r2 : Query_engine.cost = par.(i) in
      Alcotest.(check int)
        (Printf.sprintf "q%d: batch result domains 1 = 2" i)
        r1.Query_engine.result r2.Query_engine.result;
      Alcotest.(check int)
        (Printf.sprintf "q%d: batch reads domains 1 = 2" i)
        r1.Query_engine.reads r2.Query_engine.reads)
    seq

let conformance_tests =
  List.concat_map
    (fun (inner, dim) ->
      List.concat_map
        (fun partition ->
          List.concat_map
            (fun shards ->
              List.map
                (fun kind ->
                  Alcotest.test_case
                    (Printf.sprintf "%s d=%d K=%d %s %s" inner dim shards
                       (Shard.partition_name partition)
                       (Workloads.kind_name kind))
                    `Quick
                    (conformance_case ~inner ~dim ~kind ~partition ~shards))
                [ Workloads.Uniform; Workloads.Diagonal ])
            [ 1; 2; 4; 8 ])
        [ Shard.Str; Shard.Hash ])
    [ ("h2", 2); ("ptree", 3); ("rtree", 2); ("h3", 3) ]

let () =
  Alcotest.run "shard"
    [
      ("conformance", conformance_tests);
      ( "accounting",
        [
          Alcotest.test_case "deterministic across runs and domains" `Quick
            test_cost_determinism;
          Alcotest.test_case "STR tile pruning" `Quick test_str_pruning;
          Alcotest.test_case "batch engine" `Quick test_batch_engine;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "roundtrip h2 str" `Quick
            (roundtrip_case ~inner:"h2" ~dim:2 ~partition:Shard.Str);
          Alcotest.test_case "roundtrip h2 hash" `Quick
            (roundtrip_case ~inner:"h2" ~dim:2 ~partition:Shard.Hash);
          Alcotest.test_case "roundtrip ptree str" `Quick
            (roundtrip_case ~inner:"ptree" ~dim:3 ~partition:Shard.Str);
          Alcotest.test_case "roundtrip rtree str" `Quick
            (roundtrip_case ~inner:"rtree" ~dim:2 ~partition:Shard.Str);
          Alcotest.test_case "corrupted manifest" `Quick
            test_corrupted_manifest;
          Alcotest.test_case "bad id maps" `Quick test_bad_id_maps;
          Alcotest.test_case "missing shard file" `Quick
            test_missing_shard_file;
          Alcotest.test_case "corrupted shard file" `Quick
            test_corrupted_shard_file;
          Alcotest.test_case "non-sharded paths" `Quick test_non_sharded_path;
          Alcotest.test_case "wrong inner kind" `Quick test_wrong_inner_kind;
          Alcotest.test_case "pool split" `Quick test_pool_split;
          Alcotest.test_case "reopened queries charge the caller" `Quick
            test_reopened_accounting;
          Alcotest.test_case "save over a regular file" `Quick
            test_save_over_file;
        ] );
    ]

(* lcsearch: command-line front end for the library.

   Every structure subcommand goes through the Lcsearch_index registry:
   `-s/--structure` accepts any registered name, and snapshots reopen
   by looking their header kind up in the registry — no per-structure
   dispatch lives here.

   Subcommands:
     info    — the paper's Table 1 and what this repo implements
     list    — the structure registry (names, dims, Table-1 bounds)
     run     — build a structure over a generated workload, run queries,
               and report I/O statistics
     sweep   — sweep N and print scaling rows for one structure
     build   — build a structure and persist it to a snapshot file
     query   — reopen a snapshot in this (fresh) process and query it
     inspect — print a snapshot file's header
     insert  — add points to a dynamic (--dynamic) snapshot in place
     delete  — tombstone points in a dynamic snapshot in place
     churn   — apply a mixed update stream, optionally oracle-checked *)

open Cmdliner
module Index = Lcsearch_index.Index
module Registry = Lcsearch_index.Registry
module Workloads = Lcsearch_index.Workloads
module Bench_kit = Lcsearch_index.Bench_kit
module Query_engine = Lcsearch_index.Query_engine
module Par = Lcsearch_index.Par
module Shard = Lcsearch_index.Shard
module Lsm = Lcsearch_index.Lsm
module Snapshot_path = Lcsearch_index.Snapshot_path

let structure_conv =
  let parse name =
    match Registry.find name with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown structure %S (known: %s)" name
                (String.concat ", " (Registry.names ()))))
  in
  let print ppf (module M : Index.S) = Format.pp_print_string ppf M.name in
  Arg.conv (parse, print)

let workload_conv =
  Arg.enum (List.map (fun k -> (Workloads.kind_name k, k)) Workloads.kinds)

let policy_conv =
  Arg.enum
    [ ("lru", Diskstore.Buffer_pool.Lru); ("clock", Diskstore.Buffer_pool.Clock) ]

let die fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt

(* SIGINT/SIGTERM during a bench must still run the at_exit hooks
   (Par.shutdown joins the domain pool), so an interrupted run leaves
   no stuck worker domains behind: exit with the conventional
   128+signal status instead of dying on the default handler. *)
let install_clean_exit () =
  let handle code = Sys.Signal_handle (fun _ -> exit code) in
  (try Sys.set_signal Sys.sigint (handle 130) with Invalid_argument _ -> ());
  try Sys.set_signal Sys.sigterm (handle 143) with Invalid_argument _ -> ()

(* The dimension to run a structure at: --dim if given, else the
   structure's first supported dimension. *)
let pick_dim (module M : Index.S) = function
  | None -> List.hd M.dims
  | Some d ->
      if List.mem d M.dims then d
      else
        die "%s supports dimensions %s, not %d" M.name
          (String.concat ", " (List.map string_of_int M.dims))
          d

let params_of ~block_size = { Index.default_params with block_size }

(* ---------- list ---------- *)

let list_structures () =
  Printf.printf "%-14s %-7s %-10s %-8s %-26s %-30s %s\n" "name" "dims"
    "queries" "updates" "space" "query I/Os" "snapshot";
  List.iter
    (fun (module M : Index.S) ->
      Printf.printf "%-14s %-7s %-10s %-8s %-26s %-30s %s\n" M.name
        (String.concat "," (List.map string_of_int M.dims))
        (String.concat ","
           (List.map Index.query_kind_name M.kinds))
        (* Structures without a native update capability still take
           updates once wrapped: build --dynamic dynamizes any kind
           through the LSM layer. *)
        (if Option.is_some M.update then "native" else "via-lsm")
        M.space_bound M.query_bound M.snapshot.Index.snapshot_kind;
      Printf.printf "%-14s   %s\n" "" M.description)
    (Registry.all ())

let list_cmd =
  Cmd.v
    (Cmd.info "list" ~doc:"List the structure registry and Table-1 bounds")
    Term.(const list_structures $ const ())

(* ---------- run / sweep ---------- *)

let run_once (module M : Index.S) n block_size fraction queries kind seed dim
    domains =
  install_clean_exit ();
  let dim = pick_dim (module M) dim in
  let rng = Workload.rng seed in
  let ds = Workloads.dataset rng ~kind ~dim ~n (module M : Index.S) in
  let qs = Workloads.queries rng ds ~fraction ~count:queries in
  let stats = Emio.Io_stats.create () in
  let bctx = Emio.Cost_ctx.create () in
  let inst =
    Emio.Cost_ctx.with_ctx bctx (fun () ->
        Index.build (module M : Index.S) ~params:(params_of ~block_size) ~stats
          ds)
  in
  Printf.printf "%s  N=%d  B=%d  n=%d blocks  space=%d blocks  build=%d I/Os\n"
    M.name n block_size
    ((n + block_size - 1) / block_size)
    (Index.space_blocks inst)
    (Emio.Cost_ctx.total bctx);
  let costs = Query_engine.run_batch ~domains inst (Array.of_list qs) in
  let reads =
    Array.to_list (Array.map (fun c -> c.Query_engine.reads) costs)
  in
  let total_io = List.fold_left ( + ) 0 reads in
  let total_t =
    Array.fold_left (fun acc c -> acc + c.Query_engine.result) 0 costs
  in
  Printf.printf
    "%d queries at selectivity %.3f: avg %.1f I/Os (p95 %d, max %d), avg t=%d \
     points\n"
    queries fraction
    (float_of_int total_io /. float_of_int (max 1 queries))
    (Query_engine.percentile 0.95 reads)
    (List.fold_left max 0 reads)
    (total_t / max 1 queries);
  List.iter
    (fun (k, v) -> Printf.printf "  %-24s %d\n" k v)
    (Index.counters inst)

(* Parallel fan-out for query batches.  Defaults to the Par pool's
   recommendation (cores - 1, clamped to [1, 8]). *)
let domains_arg =
  Arg.(
    value
    & opt int (Par.default_domains ())
    & info [ "domains" ]
        ~doc:
          "Domains to run query batches over (default: recommended count \
           minus one; 1 = sequential).")

let structure_arg =
  Arg.(
    value
    & opt structure_conv (Registry.find_exn "h2")
    & info [ "s"; "structure" ]
        ~doc:"Structure name from the registry (see $(b,lcsearch list)).")

let dim_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "d"; "dim" ] ~doc:"Dimension (default: structure's first).")

(* Terms shared by several verbs, declared once; [doc] overrides the
   help text where a verb gives the flag a narrower meaning. *)
let seed_arg ?(doc = "Random seed.") () =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let block_size_arg =
  Arg.(value & opt int 64 & info [ "b"; "block-size" ] ~doc:"Block size B.")

let fraction_arg ?(doc = "Query selectivity.") () =
  Arg.(value & opt float 0.02 & info [ "f"; "fraction" ] ~doc)

let queries_arg ?(doc = "Query count.") () =
  Arg.(value & opt int 20 & info [ "q"; "queries" ] ~doc)

let workload_arg =
  Arg.(
    value
    & opt workload_conv Workloads.Uniform
    & info [ "w"; "workload" ] ~doc:"Workload: uniform, clusters, diagonal.")

let check_arg doc = Arg.(value & flag & info [ "check" ] ~doc)

let cache_pages_arg =
  Arg.(
    value & opt int 64
    & info [ "cache-pages" ] ~doc:"Buffer-pool capacity in pages.")

let policy_arg =
  Arg.(
    value
    & opt policy_conv Diskstore.Buffer_pool.Lru
    & info [ "policy" ] ~doc:"Buffer-pool eviction policy: lru or clock.")

let run_cmd =
  let n = Arg.(value & opt int 16384 & info [ "n" ] ~doc:"Number of points.") in
  Cmd.v
    (Cmd.info "run" ~doc:"Build a structure and measure query I/Os")
    Term.(
      const run_once $ structure_arg $ n $ block_size_arg $ fraction_arg ()
      $ queries_arg () $ workload_arg $ seed_arg () $ dim_arg $ domains_arg)

let sweep_once (module M : Index.S) block_size fraction kind seed dim domains
    ns =
  install_clean_exit ();
  let dim = pick_dim (module M) dim in
  Printf.printf "%10s %8s %10s %10s\n" "N" "n" "avg IO" "space";
  List.iter
    (fun n ->
      let r =
        Bench_kit.measure ~kind ~queries:15 ~fraction
          ~params:(params_of ~block_size) ~seed_base:seed ~domains
          (module M : Index.S) ~dim ~n
      in
      Printf.printf "%10d %8d %10.1f %10d\n" n
        ((n + block_size - 1) / block_size)
        (float_of_int r.Bench_kit.q_reads_total /. 15.)
        r.Bench_kit.space)
    ns

let sweep_cmd =
  let n_list =
    Arg.(
      value
      & opt (list int) [ 4096; 8192; 16384; 32768 ]
      & info [ "n-list" ] ~docv:"N1,N2,..."
          ~doc:
            "Comma-separated N schedule to sweep (default \
             4096,8192,16384,32768) — out-of-core sweeps are drivable \
             without recompiling.")
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Sweep N and print I/O scaling")
    Term.(
      const sweep_once $ structure_arg $ block_size_arg $ fraction_arg ()
      $ workload_arg $ seed_arg () $ dim_arg $ domains_arg $ n_list)

(* ---------- knn / segments (structure-specific extensions) ---------- *)

let knn_once n block_size k qx qy seed =
  let rng = Workload.rng seed in
  let points = Workload.clusters2 rng ~n ~clusters:12 ~sigma:5. ~range:100. in
  let stats = Emio.Io_stats.create () in
  let t =
    Core.Knn.build ~stats ~block_size ~clip:(-200., -200., 200., 200.) points
  in
  Emio.Io_stats.reset stats;
  let nearest = Core.Knn.nearest t (Geom.Point2.make qx qy) ~k in
  Printf.printf "%d-NN of (%g, %g) over %d points (%d I/Os):\n" k qx qy n
    (Emio.Io_stats.reads stats);
  List.iter
    (fun (p, d) ->
      Printf.printf "  (%10.4f, %10.4f)  distance %.4f\n" (Geom.Point2.x p)
        (Geom.Point2.y p) d)
    nearest

let knn_cmd =
  let n = Arg.(value & opt int 10000 & info [ "n" ] ~doc:"Number of points.") in
  let k = Arg.(value & opt int 5 & info [ "k" ] ~doc:"Neighbors to report.") in
  let qx = Arg.(value & opt float 0. & info [ "x" ] ~doc:"Query x.") in
  let qy = Arg.(value & opt float 0. & info [ "y" ] ~doc:"Query y.") in
  Cmd.v
    (Cmd.info "knn" ~doc:"k-nearest-neighbor search via lifting (Thm 4.3)")
    Term.(const knn_once $ n $ block_size_arg $ k $ qx $ qy $ seed_arg ())

let segments_once n block_size seed =
  let rng = Workload.rng seed in
  let segments =
    Array.init n (fun _ ->
        let cx = Random.State.float rng 200. -. 100.
        and cy = Random.State.float rng 200. -. 100. in
        let len = 0.5 +. Random.State.float rng 3. in
        let ang = Random.State.float rng (2. *. Float.pi) in
        ( Geom.Point2.make cx cy,
          Geom.Point2.make (cx +. (len *. cos ang)) (cy +. (len *. sin ang)) ))
  in
  let stats = Emio.Io_stats.create () in
  let t = Core.Seg_intersect.build ~stats ~block_size segments in
  Printf.printf "built over %d segments: %d blocks\n" n
    (Core.Seg_intersect.space_blocks t);
  for _ = 1 to 5 do
    let cx = Random.State.float rng 150. -. 75.
    and cy = Random.State.float rng 150. -. 75. in
    let qa = Geom.Point2.make cx cy
    and qb = Geom.Point2.make (cx +. 20.) (cy +. 12.) in
    Emio.Io_stats.reset stats;
    let hits = Core.Seg_intersect.query t qa qb in
    Printf.printf "query (%g,%g)-(%g,%g): %d crossings, %d I/Os (scan %d)\n"
      cx cy (cx +. 20.) (cy +. 12.) (List.length hits)
      (Emio.Io_stats.reads stats)
      ((n + block_size - 1) / block_size)
  done

let segments_cmd =
  let n = Arg.(value & opt int 16384 & info [ "n" ] ~doc:"Number of segments.") in
  Cmd.v
    (Cmd.info "segments"
       ~doc:"segment intersection searching (§7 open problem 2)")
    Term.(const segments_once $ n $ block_size_arg $ seed_arg ())

(* ---------- persistence: build / query / inspect ---------- *)

let or_die path = function Ok v -> v | Error e -> die "%s: %s" path e

let lsm_of path = function
  | Snapshot_path.Lsm m -> m
  | _ ->
      die "%s: not a dynamic (lsm) snapshot — write one with lcsearch build \
           --dynamic"
        path

let build_once (module M0 : Index.S) n block_size kind seed out page_size dim
    shards partition dynamic memtable =
  install_clean_exit ();
  (match page_size with
  | Some p when p < Diskstore.Block_file.min_page_size ->
      die "--page-size must be at least %d bytes"
        Diskstore.Block_file.min_page_size
  | _ -> ());
  if shards < 1 then die "--shards must be at least 1";
  if memtable < 1 then die "--memtable must be at least 1";
  (* [--shards K] for K > 1 swaps in the scatter-gather wrapper: same
     Index.S surface, directory snapshot instead of a single file. *)
  let (module M : Index.S) =
    if shards = 1 then (module M0)
    else Shard.make ~inner:(module M0 : Index.S) ~shards ~partition ()
  in
  (* [--dynamic] wraps the (possibly sharded) structure in the LSM
     dynamization layer: the snapshot becomes a directory that the
     insert/delete/churn verbs update in place. *)
  let (module M : Index.S) =
    if not dynamic then (module M)
    else Lsm.make ~memtable_cap:memtable ~inner:(module M : Index.S) ()
  in
  let dim = pick_dim (module M) dim in
  let rng = Workload.rng seed in
  let ds = Workloads.dataset rng ~kind ~dim ~n (module M : Index.S) in
  let stats = Emio.Io_stats.create () in
  let bctx = Emio.Cost_ctx.create () in
  let t =
    Emio.Cost_ctx.with_ctx bctx (fun () ->
        M.build ~params:(params_of ~block_size) ~stats ds)
  in
  (* The meta records the workload parameters, so [query] can
     regenerate the exact point and query streams of this process. *)
  let meta =
    Snapshot_path.meta_to_string
      {
        structure = M0.name;
        n;
        block_size;
        kind;
        seed;
        dim;
        shards = (if shards = 1 then None else Some (shards, partition));
      }
  in
  (try M.snapshot.Index.save t ~path:out ~meta ~page_size
   with Invalid_argument msg -> die "cannot write %s: %s" out msg);
  let build_ios = Emio.Cost_ctx.total bctx in
  match Snapshot_path.read_layout out with
  | Error e -> die "wrote %s but cannot read it back: %s" out e
  | Ok (Snapshot_path.Lsm m) ->
      Printf.printf
        "%s: %s over %s  N=%d  B=%d  memtable %d/%d  levels %d  build=%d model \
         I/Os\n"
        out Lsm.lsm_kind m.Lsm.inner_kind n block_size (Array.length m.Lsm.mem)
        m.Lsm.cap
        (Array.length m.Lsm.levels)
        build_ios
  | Ok (Snapshot_path.Sharded m) ->
      Printf.printf
        "%s: %s  %d %s shards of %s  N=%d  B=%d  build=%d model I/Os\n" out
        Shard.sharded_kind m.Shard.shards
        (Shard.partition_name m.Shard.partition)
        m.Shard.inner_kind n block_size build_ios
  | Ok (Snapshot_path.File info) ->
      Printf.printf
        "%s: %s  N=%d  B=%d  build=%d model I/Os  %d pages of %d bytes\n" out
        info.Diskstore.Snapshot.kind n block_size build_ios
        info.Diskstore.Snapshot.total_pages info.Diskstore.Snapshot.page_size

let build_cmd =
  let n = Arg.(value & opt int 16384 & info [ "n" ] ~doc:"Number of points.") in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"PATH" ~doc:"Snapshot file to write.")
  in
  let page_size =
    Arg.(
      value
      & opt (some int) None
      & info [ "page-size" ] ~doc:"Snapshot page size in bytes (default 4096).")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"K"
          ~doc:
            "Split the dataset into K shards (K > 1 writes a sharded \
             snapshot directory: one inner-format file per shard plus a \
             CRC-checked MANIFEST).")
  in
  let partition =
    Arg.(
      value
      & opt (enum [ ("str", Shard.Str); ("hash", Shard.Hash) ]) Shard.Str
      & info [ "partition" ]
          ~doc:
            "Shard partitioner: str (spatial sort-tile-recursive tiles, \
             prunable at query time) or hash (index hash).")
  in
  let dynamic =
    Arg.(
      value & flag
      & info [ "dynamic" ]
          ~doc:
            "Wrap the structure in the LSM dynamization layer: the snapshot \
             becomes a versioned directory that $(b,lcsearch insert), \
             $(b,lcsearch delete) and $(b,lcsearch churn) update in place.")
  in
  let memtable =
    Arg.(
      value
      & opt int Lsm.default_memtable_cap
      & info [ "memtable" ] ~docv:"K"
          ~doc:
            "LSM memtable capacity (with $(b,--dynamic)); level i holds at \
             most K*2^i points.")
  in
  Cmd.v
    (Cmd.info "build" ~doc:"Build a structure and persist it to a snapshot")
    Term.(
      const build_once $ structure_arg $ n $ block_size_arg $ workload_arg
      $ seed_arg () $ out $ page_size $ dim_arg $ shards $ partition $ dynamic
      $ memtable)

let sorted_rows l = List.sort compare (List.map Array.to_list l)

(* Reopen any snapshot layout and run the builder's replayed query
   stream against it.  [--check] compares every result set with the
   base structure rebuilt in memory: from the manifest's live rows for
   a dynamic (LSM) directory — the rebuild-from-live oracle, gating
   memtable + level fan-out + tombstone filtering — and from the
   replayed workload otherwise (for a sharded directory, the unsharded
   oracle). *)
let query_once path fraction queries cache_pages policy check =
  let stats = Emio.Io_stats.create () in
  let inst, info, h =
    or_die path (Snapshot_path.open_ ~policy ~cache_pages ~stats path)
  in
  let (module B : Index.S) = h.Snapshot_path.base in
  let meta = h.Snapshot_path.meta in
  let rng, ds = Snapshot_path.replay h in
  let rebuild params ds () =
    Index.build (module B : Index.S) ~params ~stats:(Emio.Io_stats.create ())
      ds
  in
  let pages =
    Printf.sprintf "meta %s  %d pages of %d bytes" info.Diskstore.Snapshot.meta
      info.Diskstore.Snapshot.total_pages info.Diskstore.Snapshot.page_size
  in
  let static_oracle = rebuild (params_of ~block_size:meta.block_size) ds in
  let detail, oracle_name, oracle =
    match h.Snapshot_path.layout with
    | Snapshot_path.Lsm m ->
        let live = Array.map snd (Lsm.manifest_live_rows m) in
        ( Printf.sprintf "over %s  meta %s  %d levels, %d in memtable, %d live"
            m.Lsm.inner_kind info.Diskstore.Snapshot.meta
            (Array.length m.Lsm.levels)
            (Array.length m.Lsm.mem) (Array.length live),
          "the static rebuild-from-live oracle",
          fun () ->
            rebuild m.Lsm.params
              (Index.dataset_of_rows (module B : Index.S) ~dim:meta.dim live)
              () )
    | Snapshot_path.Sharded m ->
        ( Printf.sprintf "(%d %s shards of %s)  %s" m.Shard.shards
            (Shard.partition_name m.Shard.partition)
            m.Shard.inner_kind pages,
          "the unsharded in-memory oracle",
          static_oracle )
    | Snapshot_path.File _ -> (" " ^ pages, "an in-memory rebuild", static_oracle)
  in
  let reference = if check then Some (oracle ()) else None in
  Printf.printf "%s: %s %s\n" path info.Diskstore.Snapshot.kind detail;
  Emio.Io_stats.reset stats (* drop the load-time verification sweep *);
  let total_t = ref 0 and mismatches = ref 0 in
  List.iter
    (fun q ->
      let result = Index.query inst q in
      total_t := !total_t + List.length result;
      match reference with
      | Some r ->
          if sorted_rows (Index.query r q) <> sorted_rows result then
            incr mismatches
      | None -> ())
    (Workloads.queries rng ds ~fraction ~count:queries);
  Printf.printf
    "%d queries at selectivity %.3f: avg t=%d points, %d page faults, %d \
     pool hits, %d evictions, %.1f KiB read\n"
    queries fraction
    (!total_t / max 1 queries)
    (Emio.Io_stats.reads stats)
    (Emio.Io_stats.cache_hits stats)
    (Emio.Io_stats.evictions stats)
    (float_of_int (Emio.Io_stats.bytes_read stats) /. 1024.);
  if check then
    if !mismatches = 0 then
      Printf.printf "check: all %d result sets identical to %s\n" queries
        oracle_name
    else
      die "check FAILED: %d of %d result sets differ from %s" !mismatches
        queries oracle_name

let snapshot_path_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"PATH"
        ~doc:
          "Snapshot written by $(b,lcsearch build): a file, or a sharded or \
           dynamic directory.")

let query_cmd =
  Cmd.v
    (Cmd.info "query" ~doc:"Reopen a persisted snapshot and query it")
    Term.(
      const query_once $ snapshot_path_arg $ fraction_arg () $ queries_arg ()
      $ cache_pages_arg $ policy_arg
      $ check_arg
          "Rebuild the structure in memory (from the recorded workload, or \
           from the live points of a dynamic snapshot) and verify every \
           result set matches the snapshot's.")

let pp_corner a =
  String.concat ", "
    (List.map (Printf.sprintf "%g") (Array.to_list a))

let inspect_once path =
  match or_die path (Snapshot_path.read_layout path) with
  | Snapshot_path.Lsm m ->
      Printf.printf
        "%s:\n  kind        %s\n  inner kind  %s\n  dim         %d\n\
        \  memtable    %d/%d entries\n  levels      %d\n  live        %d\n\
        \  merges      %d\n  next handle %d\n  meta        %s\n"
        path Lsm.lsm_kind m.Lsm.inner_kind m.Lsm.dim
        (Array.length m.Lsm.mem)
        m.Lsm.cap
        (Array.length m.Lsm.levels)
        (Array.length (Lsm.manifest_live_rows m))
        m.Lsm.merges m.Lsm.next_handle m.Lsm.meta;
      Array.iter
        (fun (e : Lsm.level_entry) ->
          Printf.printf
            "  level %-16s slot %-2d crc %08x  %-8d points, %d dead\n"
            e.Lsm.file e.Lsm.slot e.Lsm.crc
            (Array.length e.Lsm.handles)
            (Array.length e.Lsm.dead))
        m.Lsm.levels
  | Snapshot_path.Sharded m ->
      Printf.printf
        "%s:\n  kind        %s\n  inner kind  %s\n  partition   %s\n\
        \  shards      %d\n  dim         %d\n  points      %d\n\
        \  meta        %s\n"
        path Shard.sharded_kind m.Shard.inner_kind
        (Shard.partition_name m.Shard.partition)
        m.Shard.shards m.Shard.dim m.Shard.total m.Shard.meta;
      Array.iter
        (fun (e : Shard.entry) ->
          Printf.printf
            "  shard %-16s crc %08x  ids %-8d tile [%s] .. [%s]\n"
            e.Shard.file e.Shard.crc
            (Array.length e.Shard.gids)
            (pp_corner e.Shard.lo) (pp_corner e.Shard.hi))
        m.Shard.entries
  | Snapshot_path.File i ->
      Printf.printf
        "%s:\n  kind        %s\n  meta        %s\n  version     %d\n\
        \  page size   %d bytes\n  block size  %d items\n  blocks      %d\n\
        \  pages       %d (%d bytes)\n"
        path i.Diskstore.Snapshot.kind i.Diskstore.Snapshot.meta
        i.Diskstore.Snapshot.version i.Diskstore.Snapshot.page_size
        i.Diskstore.Snapshot.block_size i.Diskstore.Snapshot.n_blocks
        i.Diskstore.Snapshot.total_pages
        (i.Diskstore.Snapshot.total_pages * i.Diskstore.Snapshot.page_size)

let inspect_cmd =
  Cmd.v
    (Cmd.info "inspect" ~doc:"Print a snapshot's header or manifest")
    Term.(const inspect_once $ snapshot_path_arg)

(* ---------- dynamic updates: insert / delete / churn ---------- *)

let dynamic_path_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"PATH"
        ~doc:"Dynamic snapshot written by $(b,lcsearch build --dynamic).")

let open_lsm_for_update path =
  let inst, info, h =
    or_die path (Snapshot_path.open_ ~stats:(Emio.Io_stats.create ()) path)
  in
  let m = lsm_of path h.Snapshot_path.layout in
  match Index.updater inst with
  | None -> die "%s: reopened snapshot is not updatable" path
  | Some u -> (inst, info, m, u, h.Snapshot_path.base)

(* The page size updated levels are rewritten at: keep the snapshot's
   own, falling back to the default when the manifest carries no level
   yet (its synthesized info has no meaningful page size). *)
let save_page_size (info : Diskstore.Snapshot.info) =
  if info.Diskstore.Snapshot.page_size >= Diskstore.Block_file.min_page_size
  then Some info.Diskstore.Snapshot.page_size
  else None

(* Fresh points are drawn from the live points' bounding box so churn
   stays inside the workload's region (selectivity targets keep
   meaning something); an empty or degenerate box falls back to the
   generators' default [0, 100] range. *)
let live_bbox ~dim rows =
  let lo = Array.make dim infinity and hi = Array.make dim neg_infinity in
  Array.iter
    (fun r ->
      for j = 0 to dim - 1 do
        if r.(j) < lo.(j) then lo.(j) <- r.(j);
        if r.(j) > hi.(j) then hi.(j) <- r.(j)
      done)
    rows;
  for j = 0 to dim - 1 do
    if not (lo.(j) <= hi.(j)) then begin
      lo.(j) <- 0.;
      hi.(j) <- 100.
    end
    else if hi.(j) -. lo.(j) < 1e-6 then hi.(j) <- lo.(j) +. 1e-6
  done;
  (lo, hi)

(* Explicit loops: rng consumption order is part of the reproducibility
   contract, and Array.init applies its function in unspecified order. *)
let fresh_row rng ~dim ~lo ~hi =
  let r = Array.make dim 0. in
  for j = 0 to dim - 1 do
    r.(j) <- lo.(j) +. Random.State.float rng (hi.(j) -. lo.(j))
  done;
  r

let insert_once path count seed =
  install_clean_exit ();
  if count < 1 then die "--count must be at least 1";
  let inst, info, m, u, _ = open_lsm_for_update path in
  let dim = m.Lsm.dim in
  let live = Lsm.manifest_live_rows m in
  let lo, hi = live_bbox ~dim (Array.map snd live) in
  let rng = Workload.rng seed in
  let first = ref (-1) and last = ref (-1) in
  for _ = 1 to count do
    let h = u.Index.u_insert (fresh_row rng ~dim ~lo ~hi) in
    if !first < 0 then first := h;
    last := h
  done;
  Index.snapshot_save inst ~path ~meta:m.Lsm.meta
    ~page_size:(save_page_size info);
  Printf.printf "%s: inserted %d point%s (handles %d..%d), %d live\n" path
    count
    (if count > 1 then "s" else "")
    !first !last
    (u.Index.u_live ())

let insert_cmd =
  let count =
    Arg.(value & opt int 1 & info [ "count" ] ~doc:"Points to insert.")
  in
  Cmd.v
    (Cmd.info "insert"
       ~doc:"Insert random points into a dynamic snapshot, in place")
    Term.(
      const insert_once $ dynamic_path_arg $ count
      $ seed_arg ~doc:"Random seed for the generated points." ())

let delete_once path handles count seed =
  install_clean_exit ();
  let inst, info, m, u, _ = open_lsm_for_update path in
  let live = Lsm.manifest_live_rows m in
  let targets =
    match handles with
    | _ :: _ -> handles
    | [] ->
        if count < 1 then die "--count must be at least 1 (or pass --handles)";
        let n_live = Array.length live in
        if n_live = 0 then die "%s: no live points to delete" path;
        let rng = Workload.rng seed in
        let picked = Hashtbl.create 16 in
        let out = ref [] in
        for _ = 1 to min count n_live do
          let i = ref (Random.State.int rng n_live) in
          while Hashtbl.mem picked !i do
            i := (!i + 1) mod n_live
          done;
          Hashtbl.add picked !i ();
          out := fst live.(!i) :: !out
        done;
        List.rev !out
  in
  let unknown =
    List.filter (fun h -> not (u.Index.u_delete h)) targets
  in
  (match unknown with
  | [] -> ()
  | hs ->
      die "%s: unknown or already-deleted handle%s %s; nothing saved" path
        (if List.length hs > 1 then "s" else "")
        (String.concat ", " (List.map string_of_int hs)));
  Index.snapshot_save inst ~path ~meta:m.Lsm.meta
    ~page_size:(save_page_size info);
  let n_deleted = List.length targets in
  Printf.printf "%s: deleted %d point%s, %d live\n" path n_deleted
    (if n_deleted > 1 then "s" else "")
    (u.Index.u_live ())

let delete_cmd =
  let handles =
    Arg.(
      value
      & opt (list int) []
      & info [ "handles" ] ~docv:"H1,H2,..."
          ~doc:
            "Handles to delete (as reported by $(b,lcsearch insert) or the \
             original build order 0..N-1).")
  in
  let count =
    Arg.(
      value & opt int 1
      & info [ "count" ]
          ~doc:"Random live points to delete when --handles is not given.")
  in
  Cmd.v
    (Cmd.info "delete"
       ~doc:"Tombstone points in a dynamic snapshot, in place")
    Term.(const delete_once $ dynamic_path_arg $ handles $ count $ seed_arg ())

(* Apply a mixed insert/delete stream while maintaining an exact
   (handle -> row) model, then — under [--check] — gate the dynamized
   instance against a static rebuild over the model's live rows, save,
   reopen, and gate again.  This is the CI churn-smoke loop in one
   verb. *)
let churn_once path ops insert_frac fraction queries seed check =
  install_clean_exit ();
  if ops < 1 then die "--ops must be at least 1";
  if insert_frac < 0. || insert_frac > 1. then
    die "--insert-frac must be in [0,1]";
  let inst, info, m, u, (module M : Index.S) = open_lsm_for_update path in
  let dim = m.Lsm.dim in
  let live0 = Lsm.manifest_live_rows m in
  let lo, hi = live_bbox ~dim (Array.map snd live0) in
  let rng = Workload.rng seed in
  let model = Hashtbl.create (max 16 (2 * Array.length live0)) in
  let vec = ref (Array.map fst live0) in
  let len = ref (Array.length !vec) in
  Array.iter (fun (h, r) -> Hashtbl.replace model h r) live0;
  let push h =
    if !len = Array.length !vec then begin
      let bigger = Array.make (max 8 (2 * !len)) 0 in
      Array.blit !vec 0 bigger 0 !len;
      vec := bigger
    end;
    !vec.(!len) <- h;
    incr len
  in
  let inserted = ref 0 and deleted = ref 0 in
  for _ = 1 to ops do
    if !len = 0 || Random.State.float rng 1. < insert_frac then begin
      let r = fresh_row rng ~dim ~lo ~hi in
      let h = u.Index.u_insert r in
      Hashtbl.replace model h r;
      push h;
      incr inserted
    end
    else begin
      let i = Random.State.int rng !len in
      let h = !vec.(i) in
      if not (u.Index.u_delete h) then
        die "%s: delete of live handle %d refused" path h;
      Hashtbl.remove model h;
      !vec.(i) <- !vec.(!len - 1);
      decr len;
      incr deleted
    end
  done;
  if u.Index.u_live () <> !len then
    die "%s: instance reports %d live, model has %d" path (u.Index.u_live ())
      !len;
  let live_rows = Array.init !len (fun i -> Hashtbl.find model !vec.(i)) in
  let ods = Index.dataset_of_rows (module M : Index.S) ~dim live_rows in
  let qs = ref [] in
  for _ = 1 to queries do
    qs := Workloads.query rng ods ~fraction :: !qs
  done;
  let qs = List.rev !qs in
  let mismatches = ref 0 in
  let gate inst' =
    let rstats = Emio.Io_stats.create () in
    let oracle =
      Index.build (module M : Index.S) ~params:m.Lsm.params ~stats:rstats ods
    in
    List.iter
      (fun q ->
        if sorted_rows (Index.query inst' q) <> sorted_rows (Index.query oracle q)
        then incr mismatches)
      qs
  in
  if check then gate inst;
  Index.snapshot_save inst ~path ~meta:m.Lsm.meta
    ~page_size:(save_page_size info);
  let m' =
    if not check then lsm_of path (or_die path (Snapshot_path.read_layout path))
    else begin
      let inst2, _, h2 =
        or_die path (Snapshot_path.open_ ~stats:(Emio.Io_stats.create ()) path)
      in
      let m2 = lsm_of path h2.Snapshot_path.layout in
      let live2 = Array.length (Lsm.manifest_live_rows m2) in
      if live2 <> !len then
        die "%s: reopened manifest has %d live rows, model has %d" path live2
          !len;
      gate inst2;
      m2
    end
  in
  Printf.printf
    "%s: %d ops (%d inserts, %d deletes), %d live, %d levels, memtable %d/%d\n"
    path ops !inserted !deleted !len
    (Array.length m'.Lsm.levels)
    (Array.length m'.Lsm.mem)
    m'.Lsm.cap;
  if check then
    if !mismatches = 0 then
      Printf.printf
        "check: all %d result sets identical to the static rebuild-from-live \
         oracle, before and after reopen\n"
        queries
    else
      die "check FAILED: %d of %d result sets differ from the static \
           rebuild-from-live oracle"
        !mismatches (2 * queries)

let churn_cmd =
  let ops =
    Arg.(
      value & opt int 256 & info [ "ops" ] ~doc:"Update operations to apply.")
  in
  let insert_frac =
    Arg.(
      value & opt float 0.5
      & info [ "insert-frac" ]
          ~doc:"Fraction of operations that insert (the rest delete).")
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:"Apply a random update stream to a dynamic snapshot")
    Term.(
      const churn_once $ dynamic_path_arg $ ops $ insert_frac
      $ fraction_arg ~doc:"Query selectivity for --check." ()
      $ queries_arg ~doc:"Query count for --check." ()
      $ seed_arg ()
      $ check_arg
          "Verify every query result against a static in-memory rebuild \
           over the live points, save, reopen the snapshot, and verify \
           again; exit nonzero on any mismatch.")

(* ---------- serve / loadgen ---------- *)

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~doc:"Address to bind or connect to.")

let snapshots_arg =
  Arg.(
    non_empty
    & pos_all file []
    & info [] ~docv:"SNAPSHOT"
        ~doc:
          "Snapshots written by $(b,lcsearch build) (files or directories), \
           one per structure.")

let serve_once host port snapshots queue batch dispatchers readers coalesce_us
    domains deadline_ms read_timeout verbose =
  let cfg =
    {
      Serve.Server.default_config with
      host;
      port;
      snapshots;
      queue_capacity = queue;
      batch_max = batch;
      dispatchers;
      readers;
      coalesce_us;
      domains;
      default_deadline_ms = deadline_ms;
      read_timeout_s = read_timeout;
      verbose;
    }
  in
  let srv = try Serve.Server.start cfg with Failure m -> die "%s" m in
  let eff = Serve.Server.effective_domains srv in
  let eff_disp = Serve.Server.effective_dispatchers srv in
  let eff_readers = Serve.Server.effective_readers srv in
  let plural n = if n > 1 then "s" else "" in
  Printf.printf
    "serving on %s:%d (resident mode, %d dispatcher shard%s, %d reader%s, \
     %d effective domain%s%s):\n"
    host
    (Serve.Server.port srv)
    eff_disp (plural eff_disp) eff_readers (plural eff_readers) eff
    (plural eff)
    (if coalesce_us > 0 then Printf.sprintf ", %dus coalescing" coalesce_us
     else "");
  List.iter
    (fun (name, dim) -> Printf.printf "  %-14s d=%d\n" name dim)
    (Serve.Server.structures srv);
  print_string "SIGINT/SIGTERM drains and exits.\n";
  flush stdout;
  let stop_requested = ref false in
  let request_stop = Sys.Signal_handle (fun _ -> stop_requested := true) in
  (try Sys.set_signal Sys.sigint request_stop with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigterm request_stop with Invalid_argument _ -> ());
  while not !stop_requested do
    Thread.delay 0.2
  done;
  prerr_endline "draining...";
  Serve.Server.stop srv;
  let s = Serve.Server.stats srv in
  Printf.printf
    "served %d of %d accepted; shed %d queue-full, %d deadline, %d draining; \
     %d errors\n\
     %d batches; %d coalesced requests; max batch %d\n"
    s.Serve.Server.served s.Serve.Server.accepted s.Serve.Server.shed_full
    s.Serve.Server.shed_deadline s.Serve.Server.shed_drain s.Serve.Server.errors
    s.Serve.Server.batches s.Serve.Server.coalesced s.Serve.Server.max_batch

let serve_cmd =
  let port =
    Arg.(value & opt int 7227 & info [ "p"; "port" ] ~doc:"TCP port (0 = ephemeral).")
  in
  let queue =
    Arg.(
      value & opt int 1024
      & info [ "queue" ] ~doc:"Admission queue capacity (requests).")
  in
  let batch =
    Arg.(value & opt int 64 & info [ "batch" ] ~doc:"Dispatcher batch size.")
  in
  let dispatchers =
    Arg.(
      value & opt int 1
      & info [ "dispatchers" ]
          ~doc:
            "Dispatcher shards, each draining its own admission ring \
             (structures are hashed onto shards by name).")
  in
  let readers =
    Arg.(
      value & opt int 2
      & info [ "readers" ]
          ~doc:
            "Reader event-loop threads multiplexing the accepted \
             connections (no thread-per-connection).")
  in
  let coalesce =
    Arg.(
      value & opt int 0
      & info [ "coalesce-us" ]
          ~doc:
            "Cross-request coalescing window in microseconds: after popping \
             a batch, a dispatcher lingers up to this long — never past the \
             earliest queued deadline — to gather more same-ring requests \
             into one batched engine call.  0 disables lingering.")
  in
  let deadline =
    Arg.(
      value & opt int 200
      & info [ "deadline-ms" ]
          ~doc:"Default queueing deadline for requests that set none.")
  in
  let read_timeout =
    Arg.(
      value & opt float 30.
      & info [ "read-timeout" ] ~doc:"Per-connection idle timeout in seconds.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log connections.") in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve snapshots over TCP with admission control")
    Term.(
      const serve_once $ host_arg $ port $ snapshots_arg $ queue $ batch
      $ dispatchers $ readers $ coalesce $ domains_arg $ deadline
      $ read_timeout $ verbose)

let loadgen_once host port snapshots mode_name concurrency qps duration warmup
    mix_name zipf_s pool fraction want_ids deadline_ms check seed out =
  let mode =
    match mode_name with
    | "closed" -> Serve.Loadgen.Closed concurrency
    | "open" -> Serve.Loadgen.Open { qps; conns = concurrency }
    | m -> die "unknown mode %S (closed or open)" m
  in
  let mix =
    match mix_name with
    | "uniform" -> Serve.Loadgen.Uniform_mix
    | "zipf" -> Serve.Loadgen.Zipf zipf_s
    | m -> die "unknown mix %S (uniform or zipf)" m
  in
  let cfg =
    {
      Serve.Loadgen.host;
      port;
      snapshots;
      mode;
      mix;
      duration_s = duration;
      warmup_s = warmup;
      pool;
      fraction;
      want_ids;
      deadline_ms;
      check;
      seed;
    }
  in
  let summary = try Serve.Loadgen.run cfg with Failure m -> die "%s" m in
  Format.printf "%a@?" Serve.Loadgen.pp_summary summary;
  (match out with
  | Some path ->
      Serve.Loadgen.write_json ~path summary;
      Printf.printf "wrote %s\n" path
  | None -> ());
  if check && summary.Serve.Loadgen.mismatches > 0 then
    die "check FAILED: %d responses disagree with the sequential oracle"
      summary.Serve.Loadgen.mismatches

let loadgen_cmd =
  let port =
    Arg.(value & opt int 7227 & info [ "p"; "port" ] ~doc:"Server TCP port.")
  in
  let mode =
    Arg.(
      value
      & opt string "closed"
      & info [ "mode" ] ~doc:"closed (concurrency-bound) or open (rate-bound).")
  in
  let concurrency =
    Arg.(
      value & opt int 4
      & info [ "c"; "concurrency" ]
          ~doc:
            "Connections, in both modes: closed loop keeps one request \
             outstanding on each; open loop deals its arrivals over them.")
  in
  let qps =
    Arg.(
      value & opt float 500.
      & info [ "qps" ] ~doc:"Open-loop target arrival rate.")
  in
  let duration =
    Arg.(value & opt float 10. & info [ "duration" ] ~doc:"Run length in seconds.")
  in
  let warmup =
    Arg.(
      value & opt float 1.
      & info [ "warmup" ] ~doc:"Seconds excluded from latency accounting.")
  in
  let mix =
    Arg.(
      value
      & opt string "uniform"
      & info [ "mix" ] ~doc:"Query popularity: uniform or zipf.")
  in
  let zipf_s =
    Arg.(value & opt float 1.1 & info [ "zipf-s" ] ~doc:"Zipf skew exponent.")
  in
  let pool =
    Arg.(
      value & opt int 64
      & info [ "pool" ] ~doc:"Pregenerated queries per structure.")
  in
  let want_ids =
    Arg.(
      value & flag
      & info [ "ids" ] ~doc:"Request answer ids.")
  in
  let deadline =
    Arg.(
      value & opt int 0
      & info [ "deadline-ms" ] ~doc:"Per-request deadline (0 = server default).")
  in
  let out =
    Arg.(
      value
      & opt (some string) (Some "BENCH_SERVE.json")
      & info [ "json" ] ~docv:"PATH" ~doc:"Summary JSON output path.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Drive a running lcsearch serve and measure tail latency")
    Term.(
      const loadgen_once $ host_arg $ port $ snapshots_arg $ mode $ concurrency
      $ qps $ duration $ warmup $ mix $ zipf_s $ pool $ fraction_arg ()
      $ want_ids $ deadline
      $ check_arg
          "Reopen each snapshot in-process and verify every response's \
           count, I/O cost words, and ids against the sequential \
           single-query engine; exit nonzero on any mismatch."
      $ seed_arg () $ out)

let info_text () =
  print_string
    "Efficient Searching with Linear Constraints — OCaml reproduction\n\
     Agarwal, Arge, Erickson, Franciosa, Vitter (PODS'98 / JCSS 2000)\n\n\
     Table 1 (query I/Os, space in blocks; n = N/B, t = T/B):\n\
    \  d=2  O(log_B n + t)            O(n)           Core.Halfspace2d  (§3)\n\
    \  d=3  O(log_B n + t) expected   O(n log2 n)    Core.Halfspace3d  (§4)\n\
    \  d=3  O(n^eps + t)              O(n log_B n)   Core.Shallow_tree (§6)\n\
    \  d=3  O((n/B^a)^{2/3+eps} + t)  O(n log2 B)    Core.Tradeoff3d   (§6)\n\
    \  d=3  O(n^{2/3+eps} + t)        O(n)           Core.Partition_tree (§5)\n\
    \  d    O(n^{1-1/(d/2)+eps} + t)  O(n log_B n)   Core.Shallow_tree (§6)\n\
    \  d    O(n^{1-1/d+eps} + t)      O(n)           Core.Partition_tree (§5)\n\n\
     Also: Core.Knn (Theorem 4.3), Core.Lowest_planes (Theorem 4.2),\n\
     baselines (R-tree, quadtree, grid file, linear scan), and a full\n\
     experiment harness (dune exec bench/main.exe).\n\
     Run `lcsearch list` for the registry with per-structure bounds.\n"

let info_cmd =
  Cmd.v
    (Cmd.info "info" ~doc:"Show the paper's results and the implementation map")
    Term.(const info_text $ const ())

let () =
  let doc = "external-memory halfspace range searching (PODS'98 reproduction)" in
  let main =
    Cmd.group
      (Cmd.info "lcsearch" ~version:"1.0.0" ~doc)
      [
        list_cmd;
        run_cmd;
        sweep_cmd;
        build_cmd;
        query_cmd;
        inspect_cmd;
        insert_cmd;
        delete_cmd;
        churn_cmd;
        serve_cmd;
        loadgen_cmd;
        knn_cmd;
        segments_cmd;
        info_cmd;
      ]
  in
  (* A parameter the library rejects (a block size below 1, a negative
     cache) is the caller's error: one line and exit 1.  Anything else
     stays cmdliner's internal error. *)
  match Cmd.eval ~catch:false main with
  | code -> exit code
  | exception Invalid_argument m -> die "lcsearch: %s" m
  | exception e ->
      Printf.eprintf "lcsearch: internal error, uncaught exception:\n%s\n"
        (Printexc.to_string e);
      exit Cmd.Exit.internal_error

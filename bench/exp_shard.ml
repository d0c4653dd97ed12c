(* SHARD: out-of-core scale sweep over the sharded scatter-gather
   layer (Lcsearch_index.Shard).  For each (N, K) cell: partition the
   dataset into K shards, build the K inner structures in parallel on
   the domain pool, persist the sharded snapshot to disk, reopen it on
   the *file backend* with a cold buffer pool whose page budget is
   split across the shards, and measure query-time page faults — the
   regime the paper's n/B bounds are actually about, far past where
   everything fits in cache.

   The query pool is generated once per N and shared by every K, so
   the curves differ only in sharding.  Selectivity calibration sorts
   an N-sized residual array per query (Workload.quantile), which is
   why the pool stays small at N = 10^7.

   Environment knobs (all read by this experiment only):
     LCSEARCH_SHARD_S          structure name        (default rtree —
                               sort-based O(n log n) build; h2's layer
                               construction is superlinear and does
                               not reach 10^7)
     LCSEARCH_SHARD_NS         comma-separated N ladder
                               (default 100000,1000000,10000000)
     LCSEARCH_SHARD_KS         comma-separated shard counts
                               (default 1,4,16)
     LCSEARCH_SHARD_PARTITION  str | hash            (default str)
     LCSEARCH_SHARD_QUERIES    queries per N         (default 16)
     LCSEARCH_SHARD_FRACTION   query selectivity     (default 0.01)
     LCSEARCH_SHARD_CACHE      total buffer-pool pages, split across
                               shards on reopen      (default 512)
     LCSEARCH_SHARD_DOMAINS    build fan-out         (default: the Par
                               pool's recommendation)
     LCSEARCH_SHARD_OUT        output path (default BENCH_SHARD.json) *)

module Index = Lcsearch_index.Index
module Registry = Lcsearch_index.Registry
module Workloads = Lcsearch_index.Workloads
module Query_engine = Lcsearch_index.Query_engine
module Shard = Lcsearch_index.Shard
module Par = Lcsearch_index.Par

let env_int key default =
  match Option.bind (Sys.getenv_opt key) int_of_string_opt with
  | Some v when v > 0 -> v
  | _ -> default

let env_float key default =
  match Option.bind (Sys.getenv_opt key) float_of_string_opt with
  | Some v when v > 0. -> v
  | _ -> default

let env_ints key default =
  match Sys.getenv_opt key with
  | None -> default
  | Some s -> (
      match
        List.filter_map int_of_string_opt (String.split_on_char ',' s)
      with
      | [] -> default
      | vs -> vs)

let structure_name () =
  match Sys.getenv_opt "LCSEARCH_SHARD_S" with
  | Some s when s <> "" -> s
  | _ -> "rtree"

let partition () =
  match
    Option.bind (Sys.getenv_opt "LCSEARCH_SHARD_PARTITION")
      Shard.partition_of_string
  with
  | Some p -> p
  | None -> Shard.Str

let json_path () =
  match Sys.getenv_opt "LCSEARCH_SHARD_OUT" with
  | Some p when p <> "" -> p
  | _ -> "BENCH_SHARD.json"

(* One temp directory per cell, recursively removed afterwards so a
   10^7 sweep does not accumulate hundreds of MB of snapshots. *)
let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let dir_bytes path =
  Array.fold_left
    (fun acc f ->
      acc + (Unix.stat (Filename.concat path f)).Unix.st_size)
    0 (Sys.readdir path)

type row = {
  r_n : int;
  r_shards : int;
  r_build_s : float;
  r_build_ios : int;
  r_space_blocks : int;
  r_snapshot_bytes : int;
  r_load_s : float;
  r_avg_faults : float;
  r_p95_faults : int;
  r_words_per_query : float;
  r_avg_t : int;
  r_us_per_query : float;
  r_avg_pruned : float;
}

let measure_cell (module M : Index.S) ~partition ~build_domains ~cache_pages
    ~qs ds ~n ~k =
  let (module Sh : Index.S) =
    Shard.make ~build_domains ~inner:(module M : Index.S) ~shards:k ~partition
      ()
  in
  let stats = Emio.Io_stats.create () in
  let bctx = Emio.Cost_ctx.create () in
  let t0 = Unix.gettimeofday () in
  let t =
    Emio.Cost_ctx.with_ctx bctx (fun () ->
        Sh.build ~params:Index.default_params ~stats ds)
  in
  let build_s = Unix.gettimeofday () -. t0 in
  let space_blocks = Sh.space_blocks t in
  let ops = Sh.snapshot in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lcsearch_shard_%d_%d_%d" n k (Unix.getpid ()))
  in
  remove_tree dir;
  ops.Index.save t ~path:dir ~meta:"" ~page_size:None;
  let snapshot_bytes = dir_bytes dir in
  (* Reopen on the file backend: a fresh process-like view, page
     budget split across the K shard pools, pool cold apart from the
     load-time verification sweep (whose stats we drop). *)
  let fstats = Emio.Io_stats.create () in
  let t0 = Unix.gettimeofday () in
  let inst =
    match Shard.open_snapshot ~cache_pages ~stats:fstats dir with
    | Ok (inst, _info, _m) -> inst
    | Error e ->
        remove_tree dir;
        failwith (dir ^ ": " ^ Diskstore.Snapshot.error_to_string e)
  in
  let load_s = Unix.gettimeofday () -. t0 in
  let qctx = Emio.Cost_ctx.create () in
  let faults = ref [] and words = ref 0 and total_t = ref 0 in
  let pruned = ref 0 in
  let t0 = Unix.gettimeofday () in
  Array.iter
    (fun q ->
      Emio.Cost_ctx.reset qctx;
      let cnt =
        Emio.Cost_ctx.with_ctx qctx (fun () -> Index.query_count inst q)
      in
      total_t := !total_t + cnt;
      faults := Emio.Cost_ctx.reads qctx :: !faults;
      words := !words + (Emio.Cost_ctx.bytes_read qctx / 8);
      pruned :=
        !pruned
        + (match List.assoc_opt "last_pruned" (Index.counters inst) with
          | Some p -> p
          | None -> 0))
    qs;
  let elapsed = Unix.gettimeofday () -. t0 in
  remove_tree dir;
  let nq = max 1 (Array.length qs) in
  {
    r_n = n;
    r_shards = k;
    r_build_s = build_s;
    r_build_ios = Emio.Cost_ctx.total bctx;
    r_space_blocks = space_blocks;
    r_snapshot_bytes = snapshot_bytes;
    r_load_s = load_s;
    r_avg_faults =
      float_of_int (List.fold_left ( + ) 0 !faults) /. float_of_int nq;
    r_p95_faults = Query_engine.percentile 0.95 !faults;
    r_words_per_query = float_of_int !words /. float_of_int nq;
    r_avg_t = !total_t / nq;
    r_us_per_query = 1e6 *. elapsed /. float_of_int nq;
    r_avg_pruned = float_of_int !pruned /. float_of_int nq;
  }

let json_of rows ~structure ~partition ~queries ~fraction ~cache_pages =
  let row r =
    Printf.sprintf
      "{\"n\": %d, \"shards\": %d, \"build_s\": %.3f, \"build_ios\": %d, \
       \"space_blocks\": %d, \"snapshot_bytes\": %d, \"load_s\": %.3f, \
       \"avg_faults\": %.1f, \"p95_faults\": %d, \"words_per_query\": %.1f, \
       \"avg_t\": %d, \"us_per_query\": %.1f, \"avg_pruned\": %.2f}"
      r.r_n r.r_shards r.r_build_s r.r_build_ios r.r_space_blocks
      r.r_snapshot_bytes r.r_load_s r.r_avg_faults r.r_p95_faults
      r.r_words_per_query r.r_avg_t r.r_us_per_query r.r_avg_pruned
  in
  String.concat ""
    [
      "{\n";
      Printf.sprintf "  \"structure\": \"%s\",\n" structure;
      Printf.sprintf "  \"partition\": \"%s\",\n"
        (Shard.partition_name partition);
      Printf.sprintf "  \"queries\": %d,\n" queries;
      Printf.sprintf "  \"fraction\": %g,\n" fraction;
      Printf.sprintf "  \"cache_pages\": %d,\n" cache_pages;
      "  \"rows\": [\n    ";
      String.concat ",\n    " (List.map row rows);
      "\n  ]\n}\n";
    ]

let run () =
  Util.section "SHARD"
    "out-of-core scale sweep: sharded builds, file backend, cold pool";
  let name = structure_name () in
  let (module M : Index.S) =
    match Registry.find name with
    | Some m -> m
    | None -> failwith (Printf.sprintf "unknown structure %S" name)
  in
  let ns = env_ints "LCSEARCH_SHARD_NS" [ 100_000; 1_000_000; 10_000_000 ] in
  let ks = env_ints "LCSEARCH_SHARD_KS" [ 1; 4; 16 ] in
  let partition = partition () in
  let queries = env_int "LCSEARCH_SHARD_QUERIES" 16 in
  let fraction = env_float "LCSEARCH_SHARD_FRACTION" 0.01 in
  let cache_pages = env_int "LCSEARCH_SHARD_CACHE" 512 in
  let build_domains =
    env_int "LCSEARCH_SHARD_DOMAINS" (Par.default_domains ())
  in
  let dim = List.hd M.dims in
  Printf.printf
    "  %s d=%d, %s partition, %d queries at %.3f selectivity, %d pool \
     pages, %d build domains\n"
    M.name dim
    (Shard.partition_name partition)
    queries fraction cache_pages build_domains;
  Printf.printf "  %10s %7s %9s %10s %11s %10s %10s %12s %10s %8s\n" "N"
    "shards" "build s" "build IO" "space blk" "snap MiB" "avg fault"
    "words/query" "us/query" "pruned";
  let rows = ref [] in
  List.iter
    (fun n ->
      let rng = Workload.rng (9173 + n) in
      let ds =
        Workloads.dataset rng ~kind:Workloads.Uniform ~dim ~n
          (module M : Index.S)
      in
      let qs =
        Array.of_list (Workloads.queries rng ds ~fraction ~count:queries)
      in
      List.iter
        (fun k ->
          let r =
            measure_cell
              (module M : Index.S)
              ~partition ~build_domains ~cache_pages ~qs ds ~n ~k
          in
          rows := r :: !rows;
          Printf.printf
            "  %10d %7d %9.2f %10d %11d %10.1f %10.1f %12.1f %10.1f %8.2f\n%!"
            r.r_n r.r_shards r.r_build_s r.r_build_ios r.r_space_blocks
            (float_of_int r.r_snapshot_bytes /. 1048576.)
            r.r_avg_faults r.r_words_per_query r.r_us_per_query r.r_avg_pruned)
        ks)
    ns;
  let rows = List.rev !rows in
  let path = json_path () in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (json_of rows ~structure:M.name ~partition ~queries ~fraction
           ~cache_pages));
  Printf.printf "\nwrote %d rows to %s\n" (List.length rows) path

(* Wall-clock microbenchmarks (bechamel): one Test.make per registered
   structure, timing a representative query against a prebuilt
   instance.  The I/O experiments are the primary reproduction; these
   show CPU-side costs are sane. *)

open Bechamel
open Toolkit
module Index = Lcsearch_index.Index
module Registry = Lcsearch_index.Registry
module Workloads = Lcsearch_index.Workloads

let bench_n = 8192

(* One prebuilt instance + query per registered structure, at the
   smallest dimension it supports. *)
let make_tests () =
  List.map
    (fun (module M : Index.S) ->
      let dim = List.hd M.dims in
      let rng = Workload.rng 7001 in
      let ds = Workloads.dataset rng ~kind:Workloads.Uniform ~dim ~n:bench_n
          (module M : Index.S)
      in
      let q = Workloads.query rng ds ~fraction:0.01 in
      let stats = Emio.Io_stats.create () in
      let inst =
        Index.build (module M : Index.S) ~params:Index.default_params ~stats ds
      in
      Test.make
        ~name:(Printf.sprintf "%s d=%d" M.name dim)
        (Staged.stage (fun () -> ignore (Index.query_count inst q))))
    (Registry.all ())

let run () =
  Util.section "TIME" "Wall-clock per query (bechamel, one test per structure)";
  let tests = make_tests () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"registry" ~fmt:"%s %s" tests)
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Printf.printf "%-28s %12.1f ns/query\n" name est
      | _ -> Printf.printf "%-28s (no estimate)\n" name)
    results

(* Batch-throughput experiment: wall-clock queries/sec and GC words
   allocated per query, per registered structure, through the
   Query_engine batch path.  Emits machine-readable BENCH_TIME.json so
   the perf trajectory is tracked across PRs (EXPERIMENTS.md documents
   the schema).  Environment knobs:
     LCSEARCH_BENCH_N        points per structure   (default 8192)
     LCSEARCH_BENCH_QUERIES  batch size             (default 256)
     LCSEARCH_BENCH_DOMAINS  parallel fan-out       (default: the Par
                             pool's recommendation — cores minus one,
                             clamped to [1, 8])
     LCSEARCH_BENCH_OUT      output path            (default BENCH_TIME.json) *)

module Query_engine = Lcsearch_index.Query_engine

type batch_row = {
  br_name : string;
  br_dim : int;
  br_n : int;
  br_queries : int;
  br_domains : int;
  br_seq_qps : float;
  br_par_qps : float; (* 0. when [br_domains = 1]: no parallel run *)
  br_words_per_query : float;
  br_results_total : int;
  br_par_matches : bool; (* parallel costs bit-equal to sequential *)
  br_hot_qps : float; (* run_one per slot of the duplicate-heavy batch *)
  br_sorted_hot_qps : float; (* run_batch on the same batch *)
  br_sorted_matches : bool; (* run_batch costs bit-equal to run_one's *)
}

let costs_match (a : Query_engine.cost array) (b : Query_engine.cost array) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (x : Query_engine.cost) (y : Query_engine.cost) ->
         x.Query_engine.reads = y.Query_engine.reads
         && x.Query_engine.writes = y.Query_engine.writes
         && x.Query_engine.hits = y.Query_engine.hits
         && x.Query_engine.result = y.Query_engine.result)
       a b

let env_int name default =
  match Sys.getenv_opt name with
  | None | Some "" -> default
  | Some s -> ( match int_of_string_opt s with Some v -> v | None -> default)

(* Run batches until [min_elapsed] seconds have been spent, returning
   queries/sec.  At least two batches run, so one-off warm-up noise
   (first-touch paging, lazy thunks) never dominates a row. *)
let time_batches ~min_elapsed ~run ~queries =
  let t0 = Unix.gettimeofday () in
  let reps = ref 0 in
  let elapsed = ref 0. in
  while !elapsed < min_elapsed || !reps < 2 do
    ignore (run () : Query_engine.cost array);
    incr reps;
    elapsed := Unix.gettimeofday () -. t0
  done;
  float_of_int (!reps * queries) /. !elapsed

let measure_batch ~n ~queries ~domains (module M : Index.S) =
  let dim = List.hd M.dims in
  let rng = Workload.rng 7001 in
  let ds = Workloads.dataset rng ~kind:Workloads.Uniform ~dim ~n (module M : Index.S) in
  let qs = Array.of_list (Workloads.queries rng ds ~fraction:0.01 ~count:queries) in
  let stats = Emio.Io_stats.create () in
  let inst =
    Index.build (module M : Index.S) ~params:Index.default_params ~stats ds
  in
  let run_seq () = Query_engine.run_batch inst qs in
  let seq_costs = run_seq () (* warm-up + reference costs *) in
  let results_total =
    Array.fold_left (fun acc c -> acc + c.Query_engine.result) 0 seq_costs
  in
  (* Allocation: sequential batches bracketed by Gc.allocated_bytes
     (words = bytes / word size).  With pool domains alive (spawned by
     an earlier structure's parallel phase), their not-yet-folded
     allocation counters can flush into the totals mid-bracket —
     observed as a one-time +229 376-word step landing in whichever
     bracket runs a minor collection first.  A full major up front
     folds what it can, and the min over three brackets discards any
     remaining one-time flush: it can only inflate a bracket, and once
     absorbed it cannot recur until the next parallel run. *)
  Gc.full_major ();
  let bracket () =
    let a0 = Gc.allocated_bytes () in
    let _ = run_seq () in
    Gc.allocated_bytes () -. a0
  in
  let words_batch = min (bracket ()) (min (bracket ()) (bracket ())) in
  let words_per_query =
    words_batch /. float_of_int (Sys.word_size / 8) /. float_of_int queries
  in
  let seq_qps = time_batches ~min_elapsed:0.2 ~run:run_seq ~queries in
  let par_qps, par_matches =
    if domains <= 1 then (0., true)
    else begin
      let run_par () = Query_engine.run_batch ~domains inst qs in
      let matches = costs_match (run_par ()) seq_costs in
      (time_batches ~min_elapsed:0.2 ~run:run_par ~queries, matches)
    end
  in
  (* A duplicate-heavy ("hot") batch — [queries] slots drawn from
     queries/8 distinct planes, the Zipf-lite shape of serve traffic —
     once through run_one per slot and once through run_batch.  Both
     run sequentially, so the ratio isolates the shared traversal per
     distinct plane from domain fan-out. *)
  let distinct = max 1 (queries / 8) in
  let qhot = Array.init queries (fun i -> qs.(i mod distinct)) in
  let run_batch () = Query_engine.run_batch inst qhot in
  let run_each () = Array.map (Query_engine.run_one inst) qhot in
  let sorted_matches = costs_match (run_batch ()) (run_each ()) in
  let hot_qps = time_batches ~min_elapsed:0.2 ~run:run_each ~queries in
  let sorted_hot_qps =
    time_batches ~min_elapsed:0.2 ~run:run_batch ~queries
  in
  {
    br_name = M.name;
    br_dim = dim;
    br_n = n;
    br_queries = queries;
    br_domains = domains;
    br_seq_qps = seq_qps;
    br_par_qps = par_qps;
    br_words_per_query = words_per_query;
    br_results_total = results_total;
    br_par_matches = par_matches;
    br_hot_qps = hot_qps;
    br_sorted_hot_qps = sorted_hot_qps;
    br_sorted_matches = sorted_matches;
  }

let json_of_batch_row r =
  String.concat ""
    [
      "{";
      Printf.sprintf "\"structure\": \"%s\", " r.br_name;
      Printf.sprintf "\"dim\": %d, " r.br_dim;
      Printf.sprintf "\"n_points\": %d, " r.br_n;
      Printf.sprintf "\"queries\": %d, " r.br_queries;
      Printf.sprintf "\"domains\": %d, " r.br_domains;
      Printf.sprintf "\"seq_queries_per_sec\": %.1f, " r.br_seq_qps;
      Printf.sprintf "\"par_queries_per_sec\": %.1f, " r.br_par_qps;
      Printf.sprintf "\"parallel_speedup\": %.3f, "
        (if r.br_seq_qps > 0. then r.br_par_qps /. r.br_seq_qps else 0.);
      Printf.sprintf "\"words_per_query\": %.1f, " r.br_words_per_query;
      Printf.sprintf "\"results_total\": %d, " r.br_results_total;
      Printf.sprintf "\"parallel_costs_match\": %b, " r.br_par_matches;
      Printf.sprintf "\"hot_queries_per_sec\": %.1f, " r.br_hot_qps;
      Printf.sprintf "\"sorted_hot_queries_per_sec\": %.1f, "
        r.br_sorted_hot_qps;
      Printf.sprintf "\"sorted_hot_speedup\": %.3f, "
        (if r.br_hot_qps > 0. then r.br_sorted_hot_qps /. r.br_hot_qps else 0.);
      Printf.sprintf "\"sorted_costs_match\": %b" r.br_sorted_matches;
      "}";
    ]

let run_batch_throughput () =
  let n = env_int "LCSEARCH_BENCH_N" 8192 in
  let queries = env_int "LCSEARCH_BENCH_QUERIES" 256 in
  let domains =
    env_int "LCSEARCH_BENCH_DOMAINS" (Lcsearch_index.Par.default_domains ())
  in
  let out =
    match Sys.getenv_opt "LCSEARCH_BENCH_OUT" with
    | None | Some "" -> "BENCH_TIME.json"
    | Some p -> p
  in
  Util.section "BATCH"
    (Printf.sprintf
       "batch throughput: N=%d, %d queries/batch, %d domains -> %s" n queries
       domains out);
  let rows =
    List.map
      (fun (module M : Index.S) ->
        let r = measure_batch ~n ~queries ~domains (module M : Index.S) in
        Printf.printf
          "%-14s d=%d  seq %9.0f q/s  par %9.0f q/s  %8.0f words/query%s%s\n%!"
          r.br_name r.br_dim r.br_seq_qps r.br_par_qps r.br_words_per_query
          (Printf.sprintf "  hot batch %9.0f q/s" r.br_sorted_hot_qps)
          ((if r.br_par_matches then "" else "  PARALLEL COST MISMATCH")
          ^ if r.br_sorted_matches then "" else "  HOT BATCH COST MISMATCH");
        r)
      (Registry.all ())
  in
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        ("[\n  " ^ String.concat ",\n  " (List.map json_of_batch_row rows)
       ^ "\n]\n"))

(* Persistence experiment, generically over every snapshot-capable
   registered structure: the same instance queried in memory (simulated
   model I/Os) and reopened from a snapshot file (real page faults
   through the buffer pool).  The result counts must agree; wall-clock
   and fault numbers show what the file backend costs at different pool
   sizes and policies. *)
let run_persistence () =
  Util.section "PERSIST" "file-backed snapshots: wall-clock and page faults";
  let n = 32768 and queries = 200 in
  List.iter
    (fun (module M : Index.S) ->
      let ops = M.snapshot in
      let dim = List.hd M.dims in
      let rng = Workload.rng 9001 in
      let ds =
        Lcsearch_index.Workloads.dataset rng
          ~kind:Lcsearch_index.Workloads.Uniform ~dim ~n
          (module M : Index.S)
      in
      let qs =
        Array.of_list
          (Lcsearch_index.Workloads.queries rng ds ~fraction:0.01
             ~count:queries)
      in
      let stats = Emio.Io_stats.create () in
      let t = M.build ~params:Index.default_params ~stats ds in
      let time_queries t =
        let t0 = Unix.gettimeofday () in
        let total = ref 0 in
        Array.iter (fun q -> total := !total + M.query_count t q) qs;
        ( 1e6 *. (Unix.gettimeofday () -. t0) /. float_of_int queries,
          !total )
      in
      Printf.printf "\n%s (N=%d, %d queries):\n" M.name n queries;
      Emio.Io_stats.reset stats;
      let mem_us, mem_t = time_queries t in
      Printf.printf
        "  in-memory simulator   %8.1f us/query  %6d model I/Os  (avg \
         t=%d)\n"
        mem_us (Emio.Io_stats.reads stats) (mem_t / queries);
      let path = Filename.temp_file "lcsearch_bench" ".snapshot" in
      ops.Index.save t ~path ~meta:"" ~page_size:None;
      List.iter
        (fun (label, policy, cache_pages) ->
          let fstats = Emio.Io_stats.create () in
          match ops.Index.load ~stats:fstats ~policy ~cache_pages path with
          | Error e ->
              Printf.printf "  %-20s load failed: %s\n" label
                (Diskstore.Snapshot.error_to_string e)
          | Ok (t, _) ->
              Emio.Io_stats.reset fstats;
              let us, tt = time_queries t in
              Printf.printf
                "  %-20s %8.1f us/query  %6d page faults  %6d hits  %5d \
                 evictions  %6.0f KiB read%s\n"
                label us
                (Emio.Io_stats.reads fstats)
                (Emio.Io_stats.cache_hits fstats)
                (Emio.Io_stats.evictions fstats)
                (float_of_int (Emio.Io_stats.bytes_read fstats) /. 1024.)
                (if tt = mem_t then "" else "  RESULT MISMATCH"))
        [
          ("file, lru, 256p", Diskstore.Buffer_pool.Lru, 256);
          ("file, lru, 16p", Diskstore.Buffer_pool.Lru, 16);
          ("file, clock, 16p", Diskstore.Buffer_pool.Clock, 16);
          ("file, no pool", Diskstore.Buffer_pool.Lru, 0);
        ];
      Sys.remove path)
    (Registry.all ())

(* The batch engine against a test-local oracle: run_batch must give
   every slot the cost record of its query run alone in a fresh
   Cost_ctx — result count, reads, writes, hits — for every registered
   structure, sharded h3 and an Lsm-wrapped h2, on duplicate-heavy and
   all-distinct batches at domains 1/2/4/8.  A separate case per
   structure checks that repeated planes really share one traversal:
   the ambient Io_stats sees only the first occurrences' reads. *)

module Index = Lcsearch_index.Index
module Registry = Lcsearch_index.Registry
module Workloads = Lcsearch_index.Workloads
module Query_engine = Lcsearch_index.Query_engine
module Shard = Lcsearch_index.Shard
module Lsm = Lcsearch_index.Lsm

let check = Alcotest.(check int)
let domain_counts = [ 1; 2; 4; 8 ]

(* The oracle: one query in its own fresh context, nothing shared. *)
let reference inst q : Query_engine.cost =
  let ctx = Emio.Cost_ctx.create () in
  let result =
    Emio.Cost_ctx.with_ctx ctx (fun () -> Index.query_count inst q)
  in
  {
    reads = Emio.Cost_ctx.reads ctx;
    writes = Emio.Cost_ctx.writes ctx;
    hits = Emio.Cost_ctx.hits ctx;
    result;
  }

(* A duplicate-heavy batch: [count] slots drawn from [distinct]
   planes, interleaved so equal queries are NOT adjacent before the
   engine sorts them. *)
let hot_batch rng ds ~distinct ~count =
  let base =
    Array.of_list (Workloads.queries rng ds ~fraction:0.05 ~count:distinct)
  in
  Array.init count (fun i -> base.(i mod distinct))

let check_against_reference ~label inst qs =
  let want = Array.map (reference inst) qs in
  List.iter
    (fun domains ->
      let got = Query_engine.run_batch ~domains inst qs in
      check (label ^ ": record count") (Array.length want) (Array.length got);
      Array.iteri
        (fun i (w : Query_engine.cost) ->
          let g = got.(i) in
          let f field =
            Printf.sprintf "%s @%d domains q%d: %s" label domains i field
          in
          check (f "reads") w.reads g.reads;
          check (f "writes") w.writes g.writes;
          check (f "hits") w.hits g.hits;
          check (f "result") w.result g.result)
        want)
    domain_counts

let build_instance ?(n = 384) ~name ~kind () =
  let module M = (val Registry.find_exn name : Index.S) in
  let dim = List.hd (List.rev M.dims) in
  let rng =
    Workload.rng (8800 + Hashtbl.hash (name, Workloads.kind_name kind))
  in
  let ds = Workloads.dataset rng ~kind ~dim ~n (module M : Index.S) in
  let stats = Emio.Io_stats.create () in
  let t = Index.build (module M) ~params:Index.default_params ~stats ds in
  (t, stats, rng, ds)

(* ---- every registered kind × workload: 24 slots over 7 planes ---- *)

let hot_case ~name ~kind () =
  let t, _, rng, ds = build_instance ~name ~kind () in
  check_against_reference
    ~label:(Printf.sprintf "%s %s hot" name (Workloads.kind_name kind))
    t
    (hot_batch rng ds ~distinct:7 ~count:24)

(* ---- all-distinct batch: one traversal per slot ---- *)

let distinct_case ~name () =
  let t, _, rng, ds = build_instance ~name ~kind:Workloads.Uniform () in
  check_against_reference ~label:(name ^ " all-distinct") t
    (Array.of_list (Workloads.queries rng ds ~fraction:0.05 ~count:16))

(* ---- sharing: a hot batch charges the ambient sink only for the
   first occurrence of each plane.  An engine that ran every slot
   would charge all 24. ---- *)

let sharing_case ~name () =
  let t, stats, rng, ds = build_instance ~name ~kind:Workloads.Uniform () in
  let qs = hot_batch rng ds ~distinct:7 ~count:24 in
  let firsts =
    Array.fold_left ( + ) 0
      (Array.map (fun q -> (reference t q).reads) (Array.sub qs 0 7))
  in
  Alcotest.(check bool) (name ^ ": the planes read blocks") true (firsts > 0);
  let before = Emio.Io_stats.reads stats in
  ignore (Query_engine.run_batch t qs : Query_engine.cost array);
  check
    (name ^ ": ambient reads = the 7 first occurrences' reads")
    firsts
    (Emio.Io_stats.reads stats - before)

(* ---- wrappers: sharded h3 and an Lsm over h2 ---- *)

let wrapped_case ~label ~dim (module W : Index.S) () =
  let rng = Workload.rng 9900 in
  let ds =
    Workloads.dataset rng ~kind:Workloads.Uniform ~dim ~n:384
      (module W : Index.S)
  in
  let stats = Emio.Io_stats.create () in
  let t = Index.build (module W) ~params:Index.default_params ~stats ds in
  check_against_reference ~label:(label ^ " hot") t
    (hot_batch rng ds ~distinct:6 ~count:18);
  check_against_reference ~label:(label ^ " all-distinct") t
    (Array.of_list (Workloads.queries rng ds ~fraction:0.05 ~count:12))

let sharded_h3 partition =
  Shard.make ~inner:(Registry.find_exn "h3") ~shards:3 ~partition ()

let () =
  let kinds = [ Workloads.Uniform; Workloads.Clusters; Workloads.Diagonal ] in
  let names = Registry.names () in
  Alcotest.run "batch_sorted"
    [
      ( "hot batch",
        List.concat_map
          (fun name ->
            List.map
              (fun kind ->
                Alcotest.test_case
                  (Printf.sprintf "%s %s @ domains 1/2/4/8" name
                     (Workloads.kind_name kind))
                  `Quick (hot_case ~name ~kind))
              kinds)
          names );
      ( "all-distinct",
        List.map
          (fun name ->
            Alcotest.test_case
              (name ^ " @ domains 1/2/4/8")
              `Quick (distinct_case ~name))
          names );
      ( "sharing",
        List.map
          (fun name ->
            Alcotest.test_case
              (name ^ " ambient reads = first occurrences")
              `Quick (sharing_case ~name))
          names );
      ( "wrapped",
        [
          Alcotest.test_case "sharded h3 (str)" `Quick
            (wrapped_case ~label:"sharded h3 (str)" ~dim:3
               (sharded_h3 Shard.Str));
          Alcotest.test_case "sharded h3 (hash)" `Quick
            (wrapped_case ~label:"sharded h3 (hash)" ~dim:3
               (sharded_h3 Shard.Hash));
          Alcotest.test_case "lsm over h2" `Quick
            (wrapped_case ~label:"lsm h2" ~dim:2
               (Lsm.make ~memtable_cap:16 ~inner:(Registry.find_exn "h2") ()));
        ] );
    ]

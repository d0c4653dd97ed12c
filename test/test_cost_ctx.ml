(* Cost_ctx: scoped I/O accounting, nesting, trace events, and the
   snapshot-reopen stats regression. *)

module Index = Lcsearch_index.Index
module Registry = Lcsearch_index.Registry
module Query_engine = Lcsearch_index.Query_engine

let check = Alcotest.(check int)

(* A context mirrors exactly what the ambient counters record, and the
   ambient counters do not change behaviour when a context is
   installed. *)
let test_scoped_counts () =
  let stats = Emio.Io_stats.create () in
  let store = Emio.Store.create ~stats ~block_size:4 () in
  let ids = List.init 5 (fun i -> Emio.Store.alloc store [| i |]) in
  let ambient_before = Emio.Io_stats.reads stats in
  let ctx = Emio.Cost_ctx.create () in
  Emio.Cost_ctx.with_ctx ctx (fun () ->
      List.iter (fun id -> ignore (Emio.Store.read store id)) ids);
  check "ctx reads" 5 (Emio.Cost_ctx.reads ctx);
  check "ambient delta matches ctx" 5
    (Emio.Io_stats.reads stats - ambient_before);
  (* after exit the context stops charging *)
  ignore (Emio.Store.read store (List.hd ids));
  check "ctx unchanged after exit" 5 (Emio.Cost_ctx.reads ctx)

let test_nesting () =
  let stats = Emio.Io_stats.create () in
  let store = Emio.Store.create ~stats ~block_size:4 () in
  let id = Emio.Store.alloc store [| 1 |] in
  let outer = Emio.Cost_ctx.create () in
  let inner1 = Emio.Cost_ctx.create () in
  let inner2 = Emio.Cost_ctx.create () in
  Emio.Cost_ctx.with_ctx outer (fun () ->
      Emio.Cost_ctx.with_ctx inner1 (fun () ->
          ignore (Emio.Store.read store id));
      Emio.Cost_ctx.with_ctx inner2 (fun () ->
          ignore (Emio.Store.read store id);
          ignore (Emio.Store.read store id)));
  check "inner1" 1 (Emio.Cost_ctx.reads inner1);
  check "inner2" 2 (Emio.Cost_ctx.reads inner2);
  check "outer sees both" 3 (Emio.Cost_ctx.reads outer)

let test_exception_safe () =
  let stats = Emio.Io_stats.create () in
  let store = Emio.Store.create ~stats ~block_size:4 () in
  let id = Emio.Store.alloc store [| 1 |] in
  let ctx = Emio.Cost_ctx.create () in
  (try
     Emio.Cost_ctx.with_ctx ctx (fun () ->
         ignore (Emio.Store.read store id);
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "ctx uninstalled" false (Emio.Cost_ctx.active ());
  (* a read after the exception must not be charged to ctx *)
  ignore (Emio.Store.read store id);
  check "no late charge" 1 (Emio.Cost_ctx.reads ctx)

(* Block_read events carry the hit flag; untraced contexts see none. *)
let test_trace_block_events () =
  let stats = Emio.Io_stats.create () in
  let store = Emio.Store.create ~stats ~block_size:4 ~cache_blocks:2 () in
  let id = Emio.Store.alloc store [| 1 |] in
  let events = ref [] in
  let ctx = Emio.Cost_ctx.create ~trace:(fun ev -> events := ev :: !events) () in
  Emio.Cost_ctx.with_ctx ctx (fun () ->
      ignore (Emio.Store.read store id);
      ignore (Emio.Store.read store id));
  let reads =
    List.filter_map
      (function Emio.Cost_ctx.Block_read { hit; _ } -> Some hit | _ -> None)
      (List.rev !events)
  in
  Alcotest.(check (list bool)) "miss then hit" [ true; true ] reads;
  (* alloc put the id in the cache, so both reads hit *)
  check "hits mirrored" 2 (Emio.Cost_ctx.hits ctx)

(* Structure-level events: the §3 structure emits per-layer Level
   events, the §5 tree per-node Node events. *)
let test_trace_structure_events () =
  let rng = Workload.rng 11 in
  let pts = Workload.uniform2 rng ~n:512 ~range:100. in
  let stats = Emio.Io_stats.create () in
  let h2 = Core.Halfspace2d.build ~stats ~block_size:32 pts in
  let events = ref [] in
  let ctx = Emio.Cost_ctx.create ~trace:(fun ev -> events := ev :: !events) () in
  Emio.Cost_ctx.with_ctx ctx (fun () ->
      ignore (Core.Halfspace2d.query_count h2 ~slope:0.3 ~icept:1.));
  let levels =
    List.filter
      (function Emio.Cost_ctx.Level { label = "h2"; _ } -> true | _ -> false)
      !events
  in
  check "one Level event per visited layer"
    (Core.Halfspace2d.last_layers_visited h2)
    (List.length levels);
  let ptsd = Workload.uniform_d rng ~n:512 ~dim:2 ~range:50. in
  let pt = Core.Partition_tree.build ~stats ~block_size:32 ~dim:2 ptsd in
  let events = ref [] in
  let ctx = Emio.Cost_ctx.create ~trace:(fun ev -> events := ev :: !events) () in
  Emio.Cost_ctx.with_ctx ctx (fun () ->
      ignore (Core.Partition_tree.query_halfspace pt ~a0:0. ~a:[| 1. |]));
  let nodes =
    List.filter
      (function Emio.Cost_ctx.Node { label = "ptree"; _ } -> true | _ -> false)
      !events
  in
  check "one Node event per visited node"
    (Core.Partition_tree.last_visited_nodes pt)
    (List.length nodes)

(* Query_engine runs each query in its own context: three distinct
   planes, three traversals, each charged from a reset context. *)
let test_query_engine_batch () =
  let rng = Workload.rng 12 in
  let pts = Workload.uniform2 rng ~n:1024 ~range:100. in
  let stats = Emio.Io_stats.create () in
  let inst =
    Index.build (Registry.find_exn "scan") ~params:Index.default_params ~stats
      (Index.Pts2 pts)
  in
  let qs =
    Array.init 3 (fun i -> { Index.a0 = float_of_int i; a = [| 1. |] })
  in
  let costs = Query_engine.run_batch inst qs in
  check "three cost records" 3 (Array.length costs);
  Array.iter
    (fun c ->
      check "scan reads = n blocks" 16 c.Query_engine.reads;
      check "no writes" 0 c.Query_engine.writes)
    costs

(* The reopen-stats regression: after a snapshot reopen with a fresh stats sink,
   query I/O must be charged to the reopening process (observable both
   through the fresh ambient sink and through a scoped context), not
   leak into the marshalled copy of the builder's stats. *)
let test_snapshot_reopen_stats () =
  List.iter
    (fun name ->
      let (module M : Index.S) = Registry.find_exn name in
      let ops = M.snapshot in
      let rng = Workload.rng 13 in
      let pts = Workload.uniform2 rng ~n:2048 ~range:100. in
      let build_stats = Emio.Io_stats.create () in
      let t =
        M.build ~params:Index.default_params ~stats:build_stats
          (Index.Pts2 pts)
      in
      let path = Filename.temp_file "lcsearch_test" ".snapshot" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          ops.Index.save t ~path ~meta:"" ~page_size:None;
          let reopen_stats = Emio.Io_stats.create () in
          match
            ops.Index.load ~stats:reopen_stats
              ~policy:Diskstore.Buffer_pool.Lru ~cache_pages:0 path
          with
          | Error e ->
              Alcotest.failf "%s reopen: %s" name
                (Diskstore.Snapshot.error_to_string e)
          | Ok (t', _) ->
              Emio.Io_stats.reset reopen_stats;
              let build_before = Emio.Io_stats.total build_stats in
              let ctx = Emio.Cost_ctx.create () in
              let count =
                Emio.Cost_ctx.with_ctx ctx (fun () ->
                    M.query_count t' { Index.a0 = 0.; a = [| 1. |] })
              in
              Alcotest.(check bool)
                (name ^ ": query did I/O") true
                (Emio.Cost_ctx.reads ctx > 0);
              check
                (name ^ ": reopen sink charged = ctx")
                (Emio.Cost_ctx.reads ctx)
                (Emio.Io_stats.reads reopen_stats);
              check
                (name ^ ": builder sink untouched")
                build_before
                (Emio.Io_stats.total build_stats);
              check
                (name ^ ": same answer as before the roundtrip")
                (M.query_count t { Index.a0 = 0.; a = [| 1. |] })
                count))
    [ "h2"; "rtree"; "scan" ]

let () =
  Alcotest.run "cost_ctx"
    [
      ( "scoping",
        [
          Alcotest.test_case "scoped counts" `Quick test_scoped_counts;
          Alcotest.test_case "nesting" `Quick test_nesting;
          Alcotest.test_case "exception safety" `Quick test_exception_safe;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "block events" `Quick test_trace_block_events;
          Alcotest.test_case "structure events" `Quick
            test_trace_structure_events;
        ] );
      ( "engine",
        [ Alcotest.test_case "run_batch" `Quick test_query_engine_batch ] );
      ( "snapshots",
        [
          Alcotest.test_case "reopen charges fresh sink" `Quick
            test_snapshot_reopen_stats;
        ] );
    ]

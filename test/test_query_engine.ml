(* Reporter semantics, reads over external and resident backends, the
   codec requirements of byte-level stores, nearest-rank percentile
   edge cases, the domain pool, and sequential / parallel batch
   equivalence across every registered structure. *)

module Index = Lcsearch_index.Index
module Registry = Lcsearch_index.Registry
module Workloads = Lcsearch_index.Workloads
module Query_engine = Lcsearch_index.Query_engine
module Par = Lcsearch_index.Par

let check = Alcotest.(check int)

(* ---- Reporter: the reusable reporting sink ---- *)

let test_reporter_basics () =
  let r = Emio.Reporter.create ~capacity:2 () in
  check "fresh is empty" 0 (Emio.Reporter.length r);
  (* push past the initial capacity to exercise growth *)
  for i = 0 to 99 do
    Emio.Reporter.add r i
  done;
  check "length" 100 (Emio.Reporter.length r);
  Alcotest.(check (list int))
    "to_list insertion order"
    (List.init 100 Fun.id)
    (Emio.Reporter.to_list r);
  check "fold sums" (99 * 100 / 2) (Emio.Reporter.fold ( + ) 0 r);
  Emio.Reporter.clear r;
  check "clear empties" 0 (Emio.Reporter.length r);
  Emio.Reporter.add r 7;
  Alcotest.(check (array int)) "reusable after clear" [| 7 |]
    (Emio.Reporter.to_array r)

(* mark / truncate / rewrite_from are the doubling-protocol and
   id-translation primitives. *)
let test_reporter_mark_truncate_rewrite () =
  let r = Emio.Reporter.create () in
  Emio.Reporter.add r 10;
  let m = Emio.Reporter.mark r in
  Emio.Reporter.add r 20;
  Emio.Reporter.add r 30;
  Emio.Reporter.truncate r m;
  Alcotest.(check (list int)) "truncate rolls back to mark" [ 10 ]
    (Emio.Reporter.to_list r);
  (* a failed doubling round retries: report again after rollback *)
  Emio.Reporter.add r 21;
  Emio.Reporter.add r 31;
  Emio.Reporter.rewrite_from r m (fun id -> id * 100);
  Alcotest.(check (list int))
    "rewrite_from maps only ids since the mark" [ 10; 2100; 3100 ]
    (Emio.Reporter.to_list r);
  (match Emio.Reporter.truncate r (Emio.Reporter.length r + 1) with
  | () -> Alcotest.fail "truncate past length must raise"
  | exception Invalid_argument _ -> ())

(* ---- stores over an external backend ---- *)

(* A read-only byte backend over payloads given up front, as a
   reopened snapshot's would be.  It counts the physical reads it
   serves, so tests can observe exactly which store reads reach the
   backend.  In resident mode it hands every payload to a store opened
   over it ([take_resident]), which then only charges reads
   ([charged]) instead of fetching. *)
module Counting_backend = struct
  type t = {
    blocks : bytes array;
    mutable phys_reads : int;
    mutable charged : int;
    mutable drops : int;
    resident : bool;
  }

  let read t id =
    t.phys_reads <- t.phys_reads + 1;
    Bytes.copy t.blocks.(id)

  let take_resident t =
    if t.resident then Some (Array.map Bytes.copy t.blocks) else None

  let charge_read t _ = t.charged <- t.charged + 1
  let blocks_used t = Array.length t.blocks
  let drop_cache t = t.drops <- t.drops + 1
end

(* A store opened over a backend holding [blocks], encoded as a
   snapshot's payload would be. *)
let counting_store ?(resident = false) ~cache_blocks blocks =
  let encode = Emio.Codec.encode (Emio.Codec.array Emio.Codec.int) in
  let b =
    {
      Counting_backend.blocks = Array.of_list (List.map encode blocks);
      phys_reads = 0;
      charged = 0;
      drops = 0;
      resident;
    }
  in
  let store =
    Emio.Store.of_backend
      ~stats:(Emio.Io_stats.create ())
      ~block_size:4 ~cache_blocks ~codec:Emio.Codec.int
      (Emio.Store_intf.Backend ((module Counting_backend), b))
  in
  (store, b)

(* An external store keeps no cache of its own, whatever cache_blocks
   it records: every read reaches the backend. *)
let test_external_reads_reach_backend () =
  List.iter
    (fun cache_blocks ->
      let store, b = counting_store ~cache_blocks [ [| 1 |] ] in
      Alcotest.(check (array int)) "decoded payload" [| 1 |]
        (Emio.Store.read store 0);
      ignore (Emio.Store.read store 0);
      ignore (Emio.Store.read store 0);
      check
        (Printf.sprintf "cache_blocks %d: one backend read per Store.read"
           cache_blocks)
        3 b.Counting_backend.phys_reads;
      check "cache_blocks is still recorded" cache_blocks
        (Emio.Store.cache_blocks store))
    [ 0; 4 ]

(* drop_cache on an external store is the backend's own drop_cache;
   reads before and after it cost the same. *)
let test_external_drop_cache () =
  let store, b = counting_store ~cache_blocks:4 [ [| 1 |] ] in
  ignore (Emio.Store.read store 0);
  Emio.Store.drop_cache store;
  check "drop_cache reaches the backend" 1 b.Counting_backend.drops;
  ignore (Emio.Store.read store 0);
  check "one backend read each side of the drop" 2
    b.Counting_backend.phys_reads

(* A store over a backend is read-only, resident or not. *)
let test_external_alloc_rejected () =
  List.iter
    (fun resident ->
      let store, _ = counting_store ~resident ~cache_blocks:0 [ [| 1 |] ] in
      (match Emio.Store.alloc store [| 2 |] with
      | _ -> Alcotest.fail "alloc on an external store must raise"
      | exception Invalid_argument _ -> ());
      check
        (Printf.sprintf "resident %b: blocks used unchanged" resident)
        1
        (Emio.Store.blocks_used store))
    [ false; true ]

(* A bad block id is rejected before the read is traced or charged, on
   either kind of external store. *)
let test_external_bad_id_untraced () =
  List.iter
    (fun resident ->
      let store, b =
        counting_store ~resident ~cache_blocks:0 [ [| 1 |]; [| 2 |] ]
      in
      let events = ref [] in
      let ctx =
        Emio.Cost_ctx.create ~trace:(fun e -> events := e :: !events) ()
      in
      Emio.Cost_ctx.with_ctx ctx (fun () ->
          List.iter
            (fun id ->
              match Emio.Store.read store id with
              | _ -> Alcotest.failf "reading block %d must raise" id
              | exception Invalid_argument _ -> ())
            [ -1; 2 ]);
      let label what = Printf.sprintf "resident %b: %s" resident what in
      check (label "no event") 0 (List.length !events);
      check (label "no charge") 0 b.Counting_backend.charged;
      check (label "no backend read") 0 b.Counting_backend.phys_reads;
      check (label "nothing scoped") 0 (Emio.Cost_ctx.total ctx))
    [ false; true ]

(* ---- resident backends: every block decoded once, at of_backend ---- *)

let test_resident_reads () =
  let store, b =
    counting_store ~resident:true ~cache_blocks:0 [ [| 1; 2 |]; [| 3; 4 |] ]
  in
  let events = ref [] in
  let ctx = Emio.Cost_ctx.create ~trace:(fun e -> events := e :: !events) () in
  let first, again =
    Emio.Cost_ctx.with_ctx ctx (fun () ->
        let first = Emio.Store.read store 1 in
        (first, Emio.Store.read store 1))
  in
  Alcotest.(check (array int)) "decoded payload" [| 3; 4 |] first;
  Alcotest.(check bool) "the same array every time" true (first == again);
  check "no backend read" 0 b.Counting_backend.phys_reads;
  check "each read still charged" 2 b.Counting_backend.charged;
  Alcotest.(check bool)
    "a charged miss is traced like a backend read" true
    (!events
    = [
        Emio.Cost_ctx.Block_read { hit = false };
        Emio.Cost_ctx.Block_read { hit = false };
      ]);
  (match Emio.Store.read store 2 with
  | _ -> Alcotest.fail "reading past the last block must raise"
  | exception Invalid_argument _ -> ());
  check "a bad id charges nothing" 2 b.Counting_backend.charged

(* A resident store opened with cache_blocks > 0 charges every read,
   exactly as the same store over the non-resident backend fetches. *)
let test_resident_charges () =
  let blocks = [ [| 1 |]; [| 2 |]; [| 3 |] ] in
  let pattern = [ 0; 0; 1; 0; 2; 1; 1; 0; 2; 2 ] in
  let costs (store, count) =
    List.map
      (fun id ->
        let before = count () in
        ignore (Emio.Store.read store id);
        count () - before)
      pattern
  in
  let cold_store, cold = counting_store ~cache_blocks:2 blocks in
  let cold_costs =
    costs (cold_store, fun () -> cold.Counting_backend.phys_reads)
  in
  let store, b = counting_store ~resident:true ~cache_blocks:2 blocks in
  let resident_costs = costs (store, fun () -> b.Counting_backend.charged) in
  Alcotest.(check (list int)) "charged like the non-resident fetches"
    cold_costs resident_costs;
  Alcotest.(check (list int)) "every read charged once"
    (List.map (fun _ -> 1) pattern)
    resident_costs;
  check "no backend read" 0 b.Counting_backend.phys_reads

(* ---- codec requirements: anything that touches bytes needs the
   element codec; the pure simulator path never does ---- *)

let test_export_requires_codec () =
  let store = Emio.Store.create ~stats:(Emio.Io_stats.create ())
      ~block_size:4 ()
  in
  ignore (Emio.Store.alloc store [| 1; 2 |]);
  (match Emio.Store.export_bytes store with
  | _ -> Alcotest.fail "export_bytes without a codec must raise"
  | exception Invalid_argument _ -> ());
  (* to_blocks is the codec-free skeleton-embedding path and still works *)
  check "to_blocks still available" 1
    (Array.length (Emio.Store.to_blocks store))

let test_to_blocks_external_rejected () =
  let store, _ = counting_store ~cache_blocks:0 [ [| 1 |] ] in
  match Emio.Store.to_blocks store with
  | _ -> Alcotest.fail "to_blocks on an external store must raise"
  | exception Invalid_argument _ -> ()

let test_of_blocks_roundtrip () =
  let stats = Emio.Io_stats.create () in
  let store = Emio.Store.create ~stats ~block_size:4 () in
  let id0 = Emio.Store.alloc store [| 1; 2; 3 |] in
  let id1 = Emio.Store.alloc store [| 4 |] in
  let revived =
    Emio.Store.of_blocks ~stats ~block_size:4 (Emio.Store.to_blocks store)
  in
  Alcotest.(check (array int)) "block 0 revived" [| 1; 2; 3 |]
    (Emio.Store.read revived id0);
  Alcotest.(check (array int)) "block 1 revived" [| 4 |]
    (Emio.Store.read revived id1);
  check "blocks_used preserved" 2 (Emio.Store.blocks_used revived)

(* ---- percentile: nearest-rank edge cases ---- *)

let test_percentile () =
  check "singleton p=0" 7 (Query_engine.percentile 0. [ 7 ]);
  check "singleton p=1" 7 (Query_engine.percentile 1. [ 7 ]);
  check "singleton p=0.5" 7 (Query_engine.percentile 0.5 [ 7 ]);
  let xs = [ 5; 1; 4; 2; 3 ] in
  check "p=0 is the minimum" 1 (Query_engine.percentile 0. xs);
  check "p=1 is the maximum" 5 (Query_engine.percentile 1. xs);
  check "median of five" 3 (Query_engine.percentile 0.5 xs);
  (* nearest rank: ceil(0.9 * 5) = 5th of the sorted sample *)
  check "p=0.9 of five" 5 (Query_engine.percentile 0.9 xs);
  check "p=0.2 of five" 1 (Query_engine.percentile 0.2 xs);
  (match Query_engine.percentile 0.5 [] with
  | _ -> Alcotest.fail "empty sample must raise"
  | exception Invalid_argument _ -> ());
  (match Query_engine.percentile 1.5 [ 1 ] with
  | _ -> Alcotest.fail "p > 1 must raise"
  | exception Invalid_argument _ -> ());
  match Query_engine.percentile (-0.1) [ 1 ] with
  | _ -> Alcotest.fail "p < 0 must raise"
  | exception Invalid_argument _ -> ()

(* ties: nearest rank picks the value at the rank, duplicates and
   all — no interpolation, no dedup *)
let test_percentile_ties () =
  let xs = [ 3; 1; 3; 2; 3; 2 ] in
  (* sorted: 1 2 2 3 3 3 *)
  check "p=0 is the minimum with ties" 1 (Query_engine.percentile 0. xs);
  check "p=1 is the maximum with ties" 3 (Query_engine.percentile 1. xs);
  check "p=0.5 lands inside a tie run" 2 (Query_engine.percentile 0.5 xs);
  check "p=0.51 crosses into the next run" 3
    (Query_engine.percentile 0.51 xs);
  check "p=2/3 boundary rank" 3 (Query_engine.percentile (2. /. 3.) xs);
  let flat = [ 5; 5; 5; 5 ] in
  List.iter
    (fun p ->
      check
        (Printf.sprintf "all-equal sample at p=%g" p)
        5
        (Query_engine.percentile p flat))
    [ 0.; 0.25; 0.5; 0.75; 1. ]

(* ---- the persistent domain pool ---- *)

let count_covered ~domains n =
  let hits = Array.make (max 1 n) 0 in
  Par.run ~domains ~n (fun lo hi ->
      for i = lo to hi - 1 do
        (* each index must be claimed by exactly one chunk, so plain
           non-atomic increments are safe *)
        hits.(i) <- hits.(i) + 1
      done);
  Array.for_all (fun c -> c = 1) (Array.sub hits 0 n)

let test_pool_covers_range () =
  List.iter
    (fun (domains, n) ->
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d n=%d covered exactly once" domains n)
        true
        (count_covered ~domains n))
    [ (1, 100); (2, 100); (4, 7); (4, 1000); (3, 1000); (8, 64); (3, 0) ]

let test_pool_reuse () =
  Par.shutdown ();
  check "shutdown empties the pool" 0 (Par.pool_size ());
  Alcotest.(check bool) "first batch after shutdown" true
    (count_covered ~domains:4 64);
  let size = Par.pool_size () in
  check "run ~domains:4 spawns three helpers" 3 size;
  Alcotest.(check bool) "second batch" true (count_covered ~domains:4 64);
  check "consecutive batch reuses the pool" size (Par.pool_size ());
  Alcotest.(check bool) "smaller fan-out reuses too" true
    (count_covered ~domains:2 64);
  check "no shrink on smaller fan-out" size (Par.pool_size ())

(* Par's calling rule: one parallel caller at a time, from any domain,
   arbitrated by the lease.  Two spawned domains race for it and hold
   their outcome until both have tried, so exactly one wins; the
   winner fans out over the pool while the loser runs inline. *)
let test_pool_lease_race () =
  let go = Atomic.make false and tried = Atomic.make 0 in
  let contender () =
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    let won = Par.try_acquire () in
    Atomic.incr tried;
    while Atomic.get tried < 2 do
      Domain.cpu_relax ()
    done;
    Fun.protect
      ~finally:(fun () -> if won then Par.release ())
      (fun () -> (won, count_covered ~domains:(if won then 2 else 1) 64))
  in
  let a = Domain.spawn contender in
  let b = Domain.spawn contender in
  Atomic.set go true;
  let won_a, covered_a = Domain.join a in
  let won_b, covered_b = Domain.join b in
  Alcotest.(check bool) "exactly one domain wins the lease" true
    (won_a <> won_b);
  Alcotest.(check bool) "winner covers every index once" true
    (if won_a then covered_a else covered_b);
  Alcotest.(check bool) "loser covers every index once" true
    (if won_a then covered_b else covered_a);
  Alcotest.(check bool) "lease is free afterwards" true (Par.try_acquire ());
  Par.release ()

let test_pool_busy () =
  (match
     Par.run ~domains:2 ~n:2 (fun _ _ ->
         Par.run ~domains:2 ~n:2 (fun _ _ -> ()))
   with
  | () -> Alcotest.fail "a second parallel caller must be refused"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "pool usable after a refused caller" true
    (count_covered ~domains:2 64)

exception Poisoned of int

let test_pool_exception () =
  (match
     Par.run ~domains:4 ~n:100 (fun lo hi ->
         if lo <= 37 && 37 < hi then raise (Poisoned 37))
   with
  | () -> Alcotest.fail "poisoned chunk must propagate its exception"
  | exception Poisoned 37 -> ());
  (* the pool survives a poisoned job *)
  Alcotest.(check bool) "pool usable after an exception" true
    (count_covered ~domains:4 64)

let test_batch_poisoned_query () =
  let module M = (val Registry.find_exn "h2") in
  let rng = Workload.rng 4242 in
  let ds =
    Workloads.dataset rng ~kind:Workloads.Uniform ~dim:2 ~n:256
      (module M : Index.S)
  in
  let qs =
    Array.of_list (Workloads.queries rng ds ~fraction:0.05 ~count:8)
  in
  let stats = Emio.Io_stats.create () in
  let t = Index.build (module M) ~params:Index.default_params ~stats ds in
  (* a d=3 query against a d=2 structure: the adapter rejects it *)
  qs.(5) <- { Index.a0 = 0.; a = [| 1.; 2. |] };
  match Query_engine.run_batch ~domains:4 t qs with
  | _ -> Alcotest.fail "poisoned query must raise out of the batch"
  | exception Invalid_argument _ -> ()

(* ---- batch execution: parallel runs must report the exact
   sequential per-query costs (reads, writes, hits, result) ---- *)

let batch_equivalence_case (module M : Index.S) () =
  let dim = List.hd M.dims in
  let rng = Workload.rng (300 + Hashtbl.hash M.name mod 89) in
  let ds = Workloads.dataset rng ~kind:Workloads.Uniform ~dim ~n:512
      (module M : Index.S)
  in
  let qs = Array.of_list
      (Workloads.queries rng ds ~fraction:0.05 ~count:8)
  in
  let stats = Emio.Io_stats.create () in
  let t = Index.build (module M) ~params:Index.default_params ~stats ds in
  let seq = Query_engine.run_batch t qs in
  check "one cost record per query" (Array.length qs) (Array.length seq);
  let par = Query_engine.run_batch ~domains:4 t qs in
  Array.iteri
    (fun i (c : Query_engine.cost) ->
      let p = par.(i) in
      check (Printf.sprintf "%s query %d: reads" M.name i) c.reads p.reads;
      check (Printf.sprintf "%s query %d: writes" M.name i) c.writes p.writes;
      check (Printf.sprintf "%s query %d: hits" M.name i) c.hits p.hits;
      check (Printf.sprintf "%s query %d: result" M.name i) c.result p.result)
    seq

(* Fan-out sweep on the three structures the perf work targets: every
   domain count must reproduce the sequential costs bit-for-bit. *)
let multi_domain_case name () =
  let module M = (val Registry.find_exn name : Index.S) in
  let dim = List.hd M.dims in
  let rng = Workload.rng 7700 in
  let ds =
    Workloads.dataset rng ~kind:Workloads.Uniform ~dim ~n:1024
      (module M : Index.S)
  in
  let qs =
    Array.of_list (Workloads.queries rng ds ~fraction:0.03 ~count:32)
  in
  let stats = Emio.Io_stats.create () in
  let t = Index.build (module M) ~params:Index.default_params ~stats ds in
  let seq = Query_engine.run_batch t qs in
  List.iter
    (fun domains ->
      let par = Query_engine.run_batch ~domains t qs in
      Array.iteri
        (fun i (c : Query_engine.cost) ->
          let p = par.(i) in
          let label field =
            Printf.sprintf "%s @%d domains, query %d: %s" name domains i field
          in
          check (label "reads") c.reads p.reads;
          check (label "writes") c.writes p.writes;
          check (label "hits") c.hits p.hits;
          check (label "result") c.result p.result)
        seq)
    [ 1; 2; 4; 8 ]

let multi_domain_tests =
  List.map
    (fun name ->
      Alcotest.test_case
        (Printf.sprintf "%s @ domains 1/2/4/8" name)
        `Quick (multi_domain_case name))
    [ "h2"; "shallow"; "ptree" ]

(* Each domain of a batch models a memory of exactly cache_blocks
   blocks.  With the memory as large as one scan, a domain pays for the
   scan once and every later query it runs is free; a memory any
   smaller would miss on every read of a sequential scan.  The 256
   planes are distinct (a0 varies), so the engine runs 256 traversals
   rather than sharing one. *)
let test_batch_cache_per_domain () =
  let module M = (val Registry.find_exn "scan" : Index.S) in
  let rng = Workload.rng 9100 in
  let ds =
    Workloads.dataset rng ~kind:Workloads.Uniform ~dim:2 ~n:2048
      (module M : Index.S)
  in
  let q = List.hd (Workloads.queries rng ds ~fraction:0.05 ~count:1) in
  let build cache_blocks =
    Index.build
      (module M)
      ~params:{ Index.default_params with cache_blocks }
      ~stats:(Emio.Io_stats.create ()) ds
  in
  let blocks = (Query_engine.run_one (build 0) q).Query_engine.reads in
  Alcotest.(check bool) "a scan reads several blocks" true (blocks > 1);
  let domains = 2 in
  let costs =
    Query_engine.run_batch ~domains (build blocks)
      (Array.init 256 (fun i ->
           { q with Index.a0 = q.Index.a0 +. (0.001 *. float_of_int i) }))
  in
  let paying =
    Array.fold_left
      (fun acc (c : Query_engine.cost) ->
        if c.Query_engine.reads > 0 then acc + 1 else acc)
      0 costs
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d queries paid for reads; at most one per domain"
       paying)
    true (paying <= domains)

(* ---- run_one: the serve dispatcher's single-query path must report
   costs bit-identical to the same query inside a batch ---- *)

let run_one_equivalence_case (module M : Index.S) () =
  let dim = List.hd M.dims in
  let rng = Workload.rng (500 + Hashtbl.hash M.name mod 89) in
  let ds =
    Workloads.dataset rng ~kind:Workloads.Uniform ~dim ~n:512
      (module M : Index.S)
  in
  let qs = Array.of_list (Workloads.queries rng ds ~fraction:0.05 ~count:8) in
  let stats = Emio.Io_stats.create () in
  let t = Index.build (module M) ~params:Index.default_params ~stats ds in
  let batch = Query_engine.run_batch t qs in
  Array.iteri
    (fun i q ->
      let one = Query_engine.run_one t q in
      let b = batch.(i) in
      let label field = Printf.sprintf "%s query %d: %s" M.name i field in
      check (label "reads") b.Query_engine.reads one.Query_engine.reads;
      check (label "writes") b.Query_engine.writes one.Query_engine.writes;
      check (label "hits") b.Query_engine.hits one.Query_engine.hits;
      check (label "result") b.Query_engine.result one.Query_engine.result)
    qs;
  (* interleaving with batch runs must not perturb run_one: the scratch
     context is reset per call *)
  ignore (Query_engine.run_batch t qs);
  let again = Query_engine.run_one t qs.(0) in
  check (M.name ^ ": run_one stable across batches") batch.(0).Query_engine.reads
    again.Query_engine.reads;
  (* reporter mode returns the same count and fills the reporter with
     exactly [count] ids *)
  Array.iteri
    (fun i q ->
      let r = Query_engine.domain_reporter () in
      Emio.Reporter.clear r;
      let one = Query_engine.run_one ~reporter:r t q in
      let label field = Printf.sprintf "%s query %d: %s" M.name i field in
      check (label "reporter-mode count") batch.(i).Query_engine.result
        one.Query_engine.result;
      check (label "ids reported") one.Query_engine.result
        (Emio.Reporter.length r))
    qs

let run_one_tests =
  List.map
    (fun (module M : Index.S) ->
      Alcotest.test_case
        (Printf.sprintf "%s: run_one = batch costs" M.name)
        `Quick
        (run_one_equivalence_case (module M : Index.S)))
    (Registry.all ())

let batch_equivalence_tests =
  List.map
    (fun (module M : Index.S) ->
      Alcotest.test_case
        (Printf.sprintf "%s: parallel costs = sequential" M.name)
        `Quick
        (batch_equivalence_case (module M : Index.S)))
    (Registry.all ())

let () =
  Alcotest.run "query_engine"
    [
      ( "reporter",
        [
          Alcotest.test_case "basics" `Quick test_reporter_basics;
          Alcotest.test_case "mark/truncate/rewrite" `Quick
            test_reporter_mark_truncate_rewrite;
        ] );
      ( "external store",
        [
          Alcotest.test_case "every read reaches the backend" `Quick
            test_external_reads_reach_backend;
          Alcotest.test_case "drop_cache" `Quick test_external_drop_cache;
          Alcotest.test_case "alloc rejected, read-only" `Quick
            test_external_alloc_rejected;
          Alcotest.test_case "a bad id is neither traced nor charged" `Quick
            test_external_bad_id_untraced;
        ] );
      ( "resident",
        [
          Alcotest.test_case "reads share one decoded array" `Quick
            test_resident_reads;
          Alcotest.test_case "charges every read" `Quick
            test_resident_charges;
        ] );
      ( "codec guard",
        [
          Alcotest.test_case "export_bytes requires codec" `Quick
            test_export_requires_codec;
          Alcotest.test_case "to_blocks rejects external" `Quick
            test_to_blocks_external_rejected;
          Alcotest.test_case "of_blocks roundtrip" `Quick
            test_of_blocks_roundtrip;
        ] );
      ( "percentile",
        [
          Alcotest.test_case "nearest rank" `Quick test_percentile;
          Alcotest.test_case "ties" `Quick test_percentile_ties;
        ] );
      ( "pool",
        [
          Alcotest.test_case "range covered exactly once" `Quick
            test_pool_covers_range;
          Alcotest.test_case "reused across consecutive batches" `Quick
            test_pool_reuse;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception;
          Alcotest.test_case "poisoned query in a batch" `Quick
            test_batch_poisoned_query;
          Alcotest.test_case "lease race between two domains" `Quick
            test_pool_lease_race;
          Alcotest.test_case "second parallel caller refused" `Quick
            test_pool_busy;
        ] );
      ("batch", batch_equivalence_tests);
      ("run_one", run_one_tests);
      ( "batch fan-out",
        multi_domain_tests
        @ [
            Alcotest.test_case "a full cache_blocks per domain" `Quick
              test_batch_cache_per_domain;
          ] );
    ]

(* static_mem: in-process, single-domain closed loop over structures
   built in memory with cache_blocks = 0.

   Why this workload: core traversal, emio accounting and the build
   algorithms do the work (h2's quadratic build shows in setup_s);
   serve, Codec decode and diskstore do none.  It is the bypass side
   for every serve or decode optimization: such a change should leave
   these numbers where they were.

   Timed windows: each build (three per structure; setup_s sums the
   per-structure medians) and the closed query loop.  Dataset and
   query generation, the brute-force oracle and the exact cost pass
   run outside them. *)

module Index = Lcsearch_index.Index
module Registry = Lcsearch_index.Registry
module Workloads = Lcsearch_index.Workloads
module Shard = Lcsearch_index.Shard
module QE = Lcsearch_index.Query_engine

let n = 16384
let pool = 256

(* The closed loop asks the first [loop_pool] pool queries over and
   over, ~900 times each in a run, so the gated p50 (Kit.best_p50_us)
   catches every query's fastest call in some fast moment of the host.
   Looping over all 256 (~220 calls each), it spread by 18% over ten
   seeds. *)
let loop_pool = 64
let fraction = 0.02
let builds = 3

type spec = { label : string; m : (module Index.S); dim : int }

let specs () =
  let reg name dim = { label = name; m = Registry.find_exn name; dim } in
  [
    reg "h2" 2;
    reg "ptree" 2;
    reg "h3" 3;
    reg "cert" 3;
    reg "rtree" 2;
    {
      label = "ptree-str4";
      m =
        Shard.make ~build_domains:1 ~inner:(Registry.find_exn "ptree") ~shards:4
          ~partition:Shard.Str ();
      dim = 2;
    };
  ]

(* The brute-force oracle: the threshold form every structure tests,
   x_d - a0 - sum a_i x_i <= eps, over the raw dataset. *)
let brute_count ds (q : Index.query) =
  let ok row =
    let d = Array.length row in
    let s = ref (row.(d - 1) -. q.Index.a0) in
    for i = 0 to d - 2 do
      s := !s -. (q.Index.a.(i) *. row.(i))
    done;
    !s <= Geom.Eps.eps
  in
  match ds with
  | Index.Pts2 pts ->
      Array.fold_left
        (fun acc p -> if ok [| Geom.Point2.x p; Geom.Point2.y p |] then acc + 1 else acc)
        0 pts
  | Index.Pts3 pts ->
      Array.fold_left
        (fun acc p ->
          if ok [| Geom.Point3.x p; Geom.Point3.y p; Geom.Point3.z p |] then acc + 1
          else acc)
        0 pts
  | Index.PtsD pts -> Array.fold_left (fun acc r -> if ok r then acc + 1 else acc) 0 pts

type built = {
  spec : spec;
  inst : Index.instance;
  queries : Index.query array;
  expected : int array;
  build_s : float;
}

let run ~seed ~seconds ~trace =
  let data_rng = Workload.rng Kit.dataset_seed and rng = Workload.rng seed in
  let gen dim =
    Kit.untimed (Printf.sprintf "dataset+queries.d%d" dim) (fun () ->
        let (module M : Index.S) = Registry.find_exn (if dim = 2 then "h2" else "h3") in
        let ds = Workloads.dataset data_rng ~kind:Workloads.Uniform ~dim ~n (module M) in
        let qs = Array.of_list (Workloads.queries rng ds ~fraction ~count:pool) in
        (ds, qs, Array.map (brute_count ds) qs))
  in
  let d2 = gen 2 in
  let d3 = gen 3 in
  Kit.fact "n" (string_of_int n);
  Kit.fact "params" "block_size=64 cache_blocks=0, single domain";
  Kit.fact "queries"
    (Printf.sprintf "%d distinct per dimension (the loop asks the first %d), selectivity %.2f" pool
       loop_pool fraction);
  let built =
    List.map
      (fun spec ->
        let ds, queries, expected = if spec.dim = 2 then d2 else d3 in
        let times = ref [] and inst = ref None in
        for _ = 1 to builds do
          inst := None;
          Kit.untimed "gc" Gc.full_major;
          let i, dt =
            Kit.timed ("build." ^ spec.label) (fun () ->
                Kit.time_ns (fun () ->
                    Index.build spec.m ~params:Index.default_params
                      ~stats:(Emio.Io_stats.create ()) ds))
          in
          times := Kit.s_of_ns dt :: !times;
          inst := Some i
        done;
        { spec; inst = Option.get !inst; queries; expected; build_s = Kit.median_float !times })
      (specs ())
  in
  let setup = List.fold_left (fun acc b -> acc +. b.build_s) 0. built in
  Kit.emit "setup_s" "s" setup;
  (* exact pass: every pool query once per structure, checked against
     the brute-force counts; the model-I/O figures come from here.  The
     gated figures are geometric means over structures (see Kit). *)
  let ios = Array.make (List.length built) 0. in
  Kit.untimed "exact+oracle" (fun () ->
      List.iteri
        (fun bi b ->
          let reads = ref 0 and hits = ref 0 and total = ref 0 in
          Array.iteri
            (fun i q ->
              let c = QE.run_one b.inst q in
              if c.QE.result <> b.expected.(i) then
                Kit.mismatch "%s query %d: %d points, brute force %d" b.spec.label i
                  c.QE.result b.expected.(i);
              Kit.attempt (c.QE.result = b.expected.(i));
              reads := !reads + c.QE.reads;
              hits := !hits + c.QE.hits;
              total := !total + c.QE.reads + c.QE.writes)
            b.queries;
          let per x = float_of_int x /. float_of_int (Array.length b.queries) in
          ios.(bi) <- per !total;
          Kit.emit ~exact:true ("emio." ^ b.spec.label ^ ".reads") "count" (per !reads);
          Kit.emit ~exact:true ("emio." ^ b.spec.label ^ ".hits") "count" (per !hits))
        built);
  Kit.emit ~exact:true "ios_per_query" "count" (Kit.geomean ios);
  (* the closed loop: one caller, round-robin over structures so every
     structure answers the same number of queries *)
  let arr = Array.of_list built in
  (* [probe round] says whether a round carries the traced run's
     allocation probe; the probe sits inside the timed call, so probed
     and plain calls of one pass differ by exactly its cost *)
  let loop ~probe ~budget_s =
    let stop = Kit.now_ns () + int_of_float (budget_s *. 1e9) in
    let round = ref 0 in
    let samples = Kit.Samples.create () in
    let plain = Array.map (fun _ -> Kit.Samples.create ()) arr in
    let probed = Array.map (fun _ -> Kit.Samples.create ()) arr in
    let words = Array.make (Array.length arr) 0. in
    let best = Array.map (fun _ -> Array.make loop_pool max_int) arr in
    while Kit.now_ns () < stop do
      let qi = !round mod loop_pool in
      let traced = probe !round in
      Array.iteri
        (fun si b ->
          let q = b.queries.(qi) in
          let t0 = Kit.now_ns () in
          let w0 = if traced then Gc.minor_words () else 0. in
          let c = QE.run_one b.inst q in
          if traced then words.(si) <- words.(si) +. (Gc.minor_words () -. w0);
          let dt = Kit.now_ns () - t0 in
          Kit.Samples.add (if traced then probed else plain).(si) dt;
          Kit.Samples.add samples dt;
          if dt < best.(si).(qi) then best.(si).(qi) <- dt;
          let ok = c.QE.result = b.expected.(qi) in
          if not ok then Kit.mismatch "%s query %d in loop" b.spec.label qi;
          Kit.attempt ok)
        arr;
      incr round
    done;
    (samples, plain, probed, words, best)
  in
  Kit.untimed "gc" Gc.compact;
  let s, per, _, _, best =
    Kit.timed "loop" (fun () -> loop ~probe:(fun _ -> false) ~budget_s:seconds)
  in
  let sorted = Kit.Samples.sorted s in
  Kit.emit "query_p50_us" "us" (Kit.best_p50_us best);
  Kit.emit "query_call_p50_us" "us" (Kit.geomean_p50_us per);
  Kit.emit "query_p99_us" "us" (Kit.quantile_sorted sorted 0.99 /. 1e3);
  Kit.emit "query_qps" "1/s" (Kit.geomean (Array.map Kit.qps per));
  if trace then begin
    (* the traced pass probes every other round, so host drift falls on
       probed and plain calls alike; the parity flips each sweep of the
       loop's queries, so every query is asked both ways *)
    Kit.untimed "gc" Gc.compact;
    let _, plain, probed, words, _ =
      Kit.timed "loop.traced" (fun () ->
          loop ~probe:(fun r -> (r + (r / loop_pool)) land 1 = 1) ~budget_s:(seconds /. 2.))
    in
    Array.iteri
      (fun si b ->
        let l = b.spec.label in
        Kit.emit ("core." ^ l ^ ".build_s") "s" b.build_s;
        Kit.emit ("core." ^ l ^ ".query_us") "us" (Kit.quantile plain.(si) 0.5 /. 1e3);
        Kit.emit ("core." ^ l ^ ".words_per_query") "words"
          (words.(si) /. float_of_int (Kit.Samples.length probed.(si))))
      arr;
    let p = Kit.geomean_p50_us plain in
    Kit.emit "trace.overhead_frac" "ratio" ((Kit.geomean_p50_us probed -. p) /. p)
  end

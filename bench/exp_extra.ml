(* The §1.2 comparison experiment and the ablations (A1-A5). *)

open Geom

let block_size = 64

(* ---- S1.2: heuristic structures vs the §3 structure ------------------ *)

let sec12 () =
  Util.section "S1.2"
    "§1.2 — heuristic indexes degrade to Θ(n); the §3 structure does not";
  let module Index = Lcsearch_index.Index in
  let module Registry = Lcsearch_index.Registry in
  let module Query_engine = Lcsearch_index.Query_engine in
  let n_pts = 16384 in
  let n = Util.blocks ~block_size n_pts in
  let rng = Workload.rng 3001 in
  (* Every registered 2-d structure over the same point set and the
     same single query — the §1.2 story told generically. *)
  let run name points (q : Index.query) =
    Printf.printf "\n%s  (N=%d, n=%d, query y <= %gx%+g):\n" name n_pts n
      q.a.(0) q.a0;
    Printf.printf "  %-14s %8s %8s %8s\n" "structure" "IOs" "t" "space";
    List.iter
      (fun (module M : Index.S) ->
        let stats = Emio.Io_stats.create () in
        let inst =
          Index.build
            (module M : Index.S)
            ~params:Index.default_params ~stats (Index.Pts2 points)
        in
        let cost = Query_engine.run_one inst q in
        Printf.printf "  %-14s %8d %8d %8d\n" M.name cost.Query_engine.reads
          cost.Query_engine.result (Index.space_blocks inst))
      (Registry.for_dim 2)
  in
  let uniform = Workload.uniform2 rng ~n:n_pts ~range:100. in
  let slope, icept =
    Workload.halfplane_with_selectivity rng uniform ~fraction:0.01
  in
  run "uniform points" uniform { Index.a0 = icept; a = [| slope |] };
  let diagonal = Workload.diagonal2 rng ~n:n_pts ~jitter:0.01 ~range:100. in
  run "diagonal adversary" diagonal { Index.a0 = -0.02; a = [| 1.0 |] }

(* ---- A1: partitioner ablation ---------------------------------------- *)

let ablation_partitioner () =
  Util.section "A1" "Ablation — kd boxes vs bounding simplices in the §5 tree";
  let rng = Workload.rng 3002 in
  let n_pts = 32768 and dim = 3 in
  let points = Workload.uniform_d rng ~n:n_pts ~dim ~range:50. in
  Printf.printf "%-12s %8s %8s %8s %9s\n" "partitioner" "avg t" "avg IO"
    "visited" "space/n";
  List.iter
    (fun (name, kind) ->
      let stats = Emio.Io_stats.create () in
      let t =
        Core.Partition_tree.build ~stats ~block_size ~partitioner:kind ~dim
          points
      in
      let n = Util.blocks ~block_size n_pts in
      let visited = ref 0 in
      let queries =
        List.init 25 (fun _ ->
            let a0, a =
              Workload.halfspace_d_with_selectivity rng points ~fraction:0.01
            in
            fun () ->
              let r =
                List.length (Core.Partition_tree.query_halfspace t ~a0 ~a)
              in
              visited := !visited + Core.Partition_tree.last_visited_nodes t;
              r)
      in
      let avg_io, _, avg_t = Util.measure_queries ~stats ~block_size queries in
      Printf.printf "%-12s %8.1f %8.1f %8.1f %9.2f\n" name avg_t avg_io
        (float_of_int !visited /. 25.)
        (float_of_int (Core.Partition_tree.space_blocks t) /. float_of_int n))
    [
      ("kd", Core.Partition_tree.Kd);
      ("simplicial", Core.Partition_tree.Simplicial);
      ("shallow", Core.Partition_tree.Shallow);
    ]

(* ---- A2: one copy vs three copies (§4 footnote 9) -------------------- *)

let ablation_copies () =
  Util.section "A2" "Ablation — 1 vs 3 independent §4.1 structures (fn. 9)";
  let rng = Workload.rng 3003 in
  let n_pts = 8192 in
  let planes =
    Array.init n_pts (fun _ ->
        Plane3.make
          ~a:(Random.State.float rng 4. -. 2.)
          ~b:(Random.State.float rng 4. -. 2.)
          ~c:(Random.State.float rng 40. -. 20.))
  in
  Printf.printf "%8s %8s %8s %8s %10s %10s\n" "copies" "avg IO" "max IO"
    "space" "space/n" "fallbacks";
  List.iter
    (fun copies ->
      let stats = Emio.Io_stats.create () in
      let t =
        Core.Lowest_planes.build ~stats ~block_size ~copies
          ~clip:(-50., -50., 50., 50.) planes
      in
      let queries =
        List.init 60 (fun _ ->
            let x = Random.State.float rng 80. -. 40.
            and y = Random.State.float rng 80. -. 40. in
            fun () ->
              List.length (Core.Lowest_planes.k_lowest t ~x ~y ~k:256))
      in
      let avg_io, max_io, _ = Util.measure_queries ~stats ~block_size queries in
      let n = Util.blocks ~block_size n_pts in
      Printf.printf "%8d %8.1f %8d %8d %10.1f %10d\n" copies avg_io max_io
        (Core.Lowest_planes.space_blocks t)
        (float_of_int (Core.Lowest_planes.space_blocks t) /. float_of_int n)
        (Core.Lowest_planes.fallbacks t))
    [ 1; 2; 3 ]

(* ---- A3: LRU cache sweep ---------------------------------------------- *)

let ablation_cache () =
  Util.section "A3" "Ablation — LRU cache (memory size M/B) on §3 queries";
  let rng = Workload.rng 3004 in
  let n_pts = 16384 in
  let points = Workload.uniform2 rng ~n:n_pts ~range:100. in
  Printf.printf "%12s %8s %8s %10s\n" "cache blocks" "avg IO" "hits/query"
    "reduction";
  let cold = ref 0. in
  List.iter
    (fun cache_blocks ->
      let stats = Emio.Io_stats.create () in
      let t =
        Core.Halfspace2d.build ~stats ~block_size ~cache_blocks points
      in
      let trials = 50 in
      Emio.Io_stats.reset stats;
      for _ = 1 to trials do
        let slope, icept =
          Workload.halfplane_with_selectivity rng points ~fraction:0.02
        in
        ignore (Core.Halfspace2d.query_count t ~slope ~icept)
      done;
      let avg =
        float_of_int (Emio.Io_stats.reads stats) /. float_of_int trials
      in
      let hits =
        float_of_int (Emio.Io_stats.cache_hits stats) /. float_of_int trials
      in
      if cache_blocks = 0 then cold := avg;
      Printf.printf "%12d %8.1f %8.1f %9.0f%%\n" cache_blocks avg hits
        (100. *. (1. -. (avg /. max 1. !cold))))
    [ 0; 8; 64; 256; 1024 ]

(* ---- A4: Theorem 4.2, k sweep ----------------------------------------- *)

let ablation_klowest () =
  Util.section "A4" "Theorem 4.2 — k-lowest-planes, I/Os vs k";
  let rng = Workload.rng 3005 in
  let n_pts = 8192 in
  let planes =
    Array.init n_pts (fun _ ->
        Plane3.make
          ~a:(Random.State.float rng 4. -. 2.)
          ~b:(Random.State.float rng 4. -. 2.)
          ~c:(Random.State.float rng 40. -. 20.))
  in
  let stats = Emio.Io_stats.create () in
  let t =
    Core.Lowest_planes.build ~stats ~block_size ~clip:(-50., -50., 50., 50.)
      planes
  in
  Printf.printf "%8s %8s %8s %8s\n" "k" "k/B" "avg IO" "max IO";
  List.iter
    (fun k ->
      let queries =
        List.init 40 (fun _ ->
            let x = Random.State.float rng 80. -. 40.
            and y = Random.State.float rng 80. -. 40. in
            fun () -> List.length (Core.Lowest_planes.k_lowest t ~x ~y ~k))
      in
      let avg_io, max_io, _ = Util.measure_queries ~stats ~block_size queries in
      Printf.printf "%8d %8d %8.1f %8d\n" k (k / block_size) avg_io max_io)
    [ 16; 64; 256; 1024; 4096 ]

(* ---- A5: Theorem 4.3, k-NN sweep with exactness check ----------------- *)

let ablation_knn () =
  Util.section "A5" "Theorem 4.3 — k nearest neighbors via lifting";
  let rng = Workload.rng 3006 in
  let n_pts = 8192 in
  let points = Workload.uniform2 rng ~n:n_pts ~range:50. in
  let stats = Emio.Io_stats.create () in
  let t =
    Core.Knn.build ~stats ~block_size ~clip:(-80., -80., 80., 80.) points
  in
  Printf.printf "%8s %8s %8s %8s\n" "k" "avg IO" "max IO" "exact";
  List.iter
    (fun k ->
      let exact = ref true in
      let queries =
        List.init 25 (fun _ ->
            let q =
              Point2.make
                (Random.State.float rng 100. -. 50.)
                (Random.State.float rng 100. -. 50.)
            in
            fun () ->
              let got = Core.Knn.nearest t q ~k in
              (* verify against brute force *)
              let dists = Array.map (fun p -> Point2.dist q p) points in
              Array.sort Float.compare dists;
              List.iteri
                (fun i (_, d) ->
                  if Float.abs (d -. dists.(i)) > 1e-6 then exact := false)
                got;
              List.length got)
      in
      let avg_io, max_io, _ = Util.measure_queries ~stats ~block_size queries in
      Printf.printf "%8d %8.1f %8d %8s\n" k avg_io max_io
        (if !exact then "yes" else "NO!"))
    [ 1; 8; 64; 256 ]



(* ---- A6: grid vs segment-tree point location in the §4 structure ------ *)

let ablation_locator () =
  Util.section "A6" "Ablation — grid vs worst-case seg-tree point location (§4.1)";
  let rng = Workload.rng 3007 in
  let n_pts = 8192 in
  let planes =
    Array.init n_pts (fun _ ->
        Plane3.make
          ~a:(Random.State.float rng 4. -. 2.)
          ~b:(Random.State.float rng 4. -. 2.)
          ~c:(Random.State.float rng 40. -. 20.))
  in
  Printf.printf "%-10s %8s %8s %8s %10s\n" "locator" "avg IO" "max IO" "space"
    "space/n";
  List.iter
    (fun (name, use_segtree) ->
      let stats = Emio.Io_stats.create () in
      let t =
        Core.Lowest_planes.build ~stats ~block_size ~use_segtree
          ~clip:(-50., -50., 50., 50.) planes
      in
      let queries =
        List.init 50 (fun _ ->
            let x = Random.State.float rng 80. -. 40.
            and y = Random.State.float rng 80. -. 40. in
            fun () -> List.length (Core.Lowest_planes.k_lowest t ~x ~y ~k:128))
      in
      let avg_io, max_io, _ = Util.measure_queries ~stats ~block_size queries in
      let n = Util.blocks ~block_size n_pts in
      Printf.printf "%-10s %8.1f %8d %8d %10.1f\n" name avg_io max_io
        (Core.Lowest_planes.space_blocks t)
        (float_of_int (Core.Lowest_planes.space_blocks t) /. float_of_int n))
    [ ("grid", false); ("segtree", true) ]

(* ---- EXT1: the dynamized partition tree (§7 open problem 1) ----------- *)

let ext_dynamic () =
  Util.section "EXT1"
    "Extension — dynamized §5 tree via the LSM layer (remark (iii), open \
     problem 1)";
  let module Index = Lcsearch_index.Index in
  let rng = Workload.rng 3008 in
  let stats = Emio.Io_stats.create () in
  let (module L : Index.S) =
    Lcsearch_index.Lsm.make ~inner:(Lcsearch_index.Registry.find_exn "ptree") ()
  in
  let t =
    L.build ~params:{ Index.default_params with block_size } ~stats
      (Index.Pts2 [||])
  in
  let inst = Index.Instance ((module L), t) in
  let u = Option.get (Index.updater inst) in
  let counter k =
    Option.value ~default:0 (List.assoc_opt k (Index.counters inst))
  in
  let n = 16384 in
  for _ = 1 to n do
    ignore
      (u.Index.u_insert
         [| Random.State.float rng 200. -. 100.;
            Random.State.float rng 200. -. 100. |])
  done;
  let insert_io = Emio.Io_stats.total stats in
  Printf.printf
    "%d inserts: %.1f amortized I/Os each, %d level merges, %d levels\n" n
    (float_of_int insert_io /. float_of_int n)
    (counter "merges") (counter "levels");
  (* query I/Os mirror into the installed cost context, regardless of
     which private sink each level's store charges *)
  let ctx = Emio.Cost_ctx.create () in
  let query () =
    let a0 = Random.State.float rng 200. -. 100.
    and a = [| Random.State.float rng 2. -. 1. |] in
    Emio.Cost_ctx.reset ctx;
    let t_count =
      Emio.Cost_ctx.with_ctx ctx (fun () ->
          Index.query_count inst { Index.a0; a })
    in
    (Emio.Cost_ctx.reads ctx, Util.blocks ~block_size t_count)
  in
  let measured = ref [] in
  for _ = 1 to 30 do
    measured := query () :: !measured
  done;
  let measured = !measured in
  let avg_io, max_io = Util.summarize (List.map fst measured) in
  let avg_t, _ = Util.summarize (List.map snd measured) in
  Printf.printf "queries: avg %.1f I/Os (max %d) for avg t = %.0f blocks\n"
    avg_io max_io avg_t;
  (* delete half, query again *)
  let io_before_deletes = Emio.Io_stats.total stats in
  for h = 0 to (n / 2) - 1 do
    ignore (u.Index.u_delete (2 * h))
  done;
  Printf.printf
    "%d deletes: %.1f amortized I/Os each; %d live, space %d blocks\n" (n / 2)
    (float_of_int (Emio.Io_stats.total stats - io_before_deletes)
    /. float_of_int (n / 2))
    (u.Index.u_live ())
    (Index.space_blocks inst)

(* ---- EXT2: segment intersection queries (§7 open problem 2) ----------- *)

let ext_segments () =
  Util.section "EXT2"
    "Extension — segment intersection searching (open problem 2)";
  let rng = Workload.rng 3009 in
  Printf.printf "%8s %6s %8s %8s %8s %10s\n" "N" "n" "avg t" "avg IO"
    "max IO" "space/n";
  List.iter
    (fun n_segs ->
      let segments =
        Array.init n_segs (fun _ ->
            let cx = Random.State.float rng 400. -. 200.
            and cy = Random.State.float rng 400. -. 200. in
            let len = 0.5 +. Random.State.float rng 3. in
            let ang = Random.State.float rng (2. *. Float.pi) in
            ( Geom.Point2.make cx cy,
              Geom.Point2.make (cx +. (len *. cos ang)) (cy +. (len *. sin ang))
            ))
      in
      let stats = Emio.Io_stats.create () in
      let t = Core.Seg_intersect.build ~stats ~block_size segments in
      let n = Util.blocks ~block_size n_segs in
      let queries =
        List.init 20 (fun _ ->
            let cx = Random.State.float rng 300. -. 150.
            and cy = Random.State.float rng 300. -. 150. in
            let qa = Geom.Point2.make cx cy
            and qb = Geom.Point2.make (cx +. 10.) (cy +. 6.) in
            fun () -> List.length (Core.Seg_intersect.query t qa qb))
      in
      let avg_io, max_io, avg_t = Util.measure_queries ~stats ~block_size queries in
      Printf.printf "%8d %6d %8.1f %8.1f %8d %10.1f\n" n_segs n avg_t avg_io
        max_io
        (float_of_int (Core.Seg_intersect.space_blocks t) /. float_of_int n))
    [ 4096; 8192; 16384; 32768 ]

(* ---- EXT3: circular range reporting via lifting ------------------------ *)

let ext_disks () =
  Util.section "EXT3" "Extension — disk range reporting via the lifting map";
  let rng = Workload.rng 3010 in
  let n_pts = 8192 in
  let points = Workload.uniform2 rng ~n:n_pts ~range:50. in
  let stats = Emio.Io_stats.create () in
  let t =
    Core.Disk_range.build ~stats ~block_size ~clip:(-80., -80., 80., 80.)
      points
  in
  Printf.printf "%8s %8s %8s %8s\n" "radius" "avg T" "avg IO" "max IO";
  List.iter
    (fun radius ->
      let total_t = ref 0 in
      let queries =
        List.init 30 (fun _ ->
            let center =
              Geom.Point2.make
                (Random.State.float rng 80. -. 40.)
                (Random.State.float rng 80. -. 40.)
            in
            fun () ->
              let r = Core.Disk_range.query_count t ~center ~radius in
              total_t := !total_t + r;
              r)
      in
      let avg_io, max_io, _ = Util.measure_queries ~stats ~block_size queries in
      Printf.printf "%8.1f %8.1f %8.1f %8d\n" radius
        (float_of_int !total_t /. 30.)
        avg_io max_io)
    [ 2.; 8.; 20.; 40. ]


(* ---- A7: the beta log r threshold of the shallow tree (§6) ------------ *)

let ablation_shallow_factor () =
  Util.section "A7" "Ablation — the crossing threshold beta of the §6 tree";
  let rng = Workload.rng 3011 in
  let n_pts = 32768 in
  let points = Workload.uniform_d rng ~n:n_pts ~dim:3 ~range:50. in
  Printf.printf "%8s %8s %8s %12s\n" "factor" "avg t" "avg IO" "secondary";
  List.iter
    (fun factor ->
      let stats = Emio.Io_stats.create () in
      let t =
        Core.Shallow_tree.build ~stats ~block_size ~shallow_factor:factor
          ~dim:3 points
      in
      let secondary = ref 0 in
      let queries =
        List.init 25 (fun _ ->
            let a0, a =
              Workload.halfspace_d_with_selectivity rng points ~fraction:0.01
            in
            fun () ->
              let r = List.length (Core.Shallow_tree.query_halfspace t ~a0 ~a) in
              secondary := !secondary + Core.Shallow_tree.last_secondary_uses t;
              r)
      in
      let avg_io, _, avg_t = Util.measure_queries ~stats ~block_size queries in
      Printf.printf "%8.1f %8.1f %8.1f %12d\n" factor avg_t avg_io !secondary)
    [ 0.5; 1.0; 2.0; 4.0; 8.0 ];
  Printf.printf
    "(small factor: everything looks non-shallow and bails to the §5\n\
    \ secondaries; large factor: the shallow path absorbs all queries)\n"


(* ---- EXT4: certificate-enhanced tree vs the §5/§6 trees --------------- *)

let ext_cert_tree () =
  Util.section "EXT4"
    "Extension — certificate tree: output-sensitive 3-D halfspace reporting";
  let rng = Workload.rng 3012 in
  Printf.printf "%8s %8s %6s | %18s | %10s | %18s\n" "N" "slope" "T"
    "§5 tree (IO/visit)" "§6 shallow" "certificate tree";
  List.iter
    (fun n_pts ->
      let points3 =
        Array.init n_pts (fun _ ->
            Geom.Point3.make
              (Random.State.float rng 100. -. 50.)
              (Random.State.float rng 100. -. 50.)
              (Random.State.float rng 100. -. 50.))
      in
      let coords =
        Array.map
          (fun p -> [| Geom.Point3.x p; Geom.Point3.y p; Geom.Point3.z p |])
          points3
      in
      let s1 = Emio.Io_stats.create ()
      and s2 = Emio.Io_stats.create ()
      and s3 = Emio.Io_stats.create () in
      let pt = Core.Partition_tree.build ~stats:s1 ~block_size ~dim:3 coords in
      let sh = Core.Shallow_tree.build ~stats:s2 ~block_size ~dim:3 coords in
      let ct = Core.Cert_tree.build ~stats:s3 ~block_size points3 in
      (* fixed small output T = 64; steep query planes slice through
         every column of the box, so cell-based classification
         degenerates while point-set certificates stay exact *)
      List.iter
        (fun steep ->
          let a = [| steep; -.steep *. 0.8 |] in
          let residuals =
            Array.map
              (fun p ->
                Geom.Point3.z p
                -. (a.(0) *. Geom.Point3.x p)
                -. (a.(1) *. Geom.Point3.y p))
              points3
          in
          Array.sort Float.compare residuals;
          let a0 = residuals.(63) in
          Emio.Io_stats.reset s1;
          let t1 = List.length (Core.Partition_tree.query_halfspace pt ~a0 ~a) in
          let io1 = Emio.Io_stats.reads s1
          and v1 = Core.Partition_tree.last_visited_nodes pt in
          Emio.Io_stats.reset s2;
          ignore (Core.Shallow_tree.query_halfspace sh ~a0 ~a);
          let io2 = Emio.Io_stats.reads s2 in
          Emio.Io_stats.reset s3;
          ignore (Core.Cert_tree.query_count ct ~a0 ~a);
          let io3 = Emio.Io_stats.reads s3
          and v3 = Core.Cert_tree.last_visited_nodes ct in
          Printf.printf "%8d %8.1f %6d | %10d / %5d | %10d | %10d / %5d\n"
            n_pts steep t1 io1 v1 io2 io3 v3)
        [ 0.4; 2.; 8. ])
    [ 16384; 65536 ];
  Printf.printf
    "(uniform data lets every tree off lightly: shallow planes hug a\n\
    \ corner of the box.  The adversary below does not.)\n";
  (* 3-D analogue of the §1.2 diagonal: points in a thin slab around
     z = x; a plane parallel to the slab and slightly below its median
     crosses almost every kd box while reporting few points *)
  let n_pts = 16384 in
  let jitter = 0.5 in
  let slab =
    Array.init n_pts (fun _ ->
        let x = Random.State.float rng 200. -. 100.
        and y = Random.State.float rng 200. -. 100. in
        Geom.Point3.make x y (x +. Random.State.float rng jitter))
  in
  let coords =
    Array.map
      (fun p -> [| Geom.Point3.x p; Geom.Point3.y p; Geom.Point3.z p |])
      slab
  in
  let s1 = Emio.Io_stats.create () and s3 = Emio.Io_stats.create () in
  let pt = Core.Partition_tree.build ~stats:s1 ~block_size ~dim:3 coords in
  let ct = Core.Cert_tree.build ~stats:s3 ~block_size slab in
  let a = [| 1.; 0. |] and a0 = -0.02 *. jitter in
  Emio.Io_stats.reset s1;
  let t1 = List.length (Core.Partition_tree.query_halfspace pt ~a0 ~a) in
  let io1 = Emio.Io_stats.reads s1 in
  Emio.Io_stats.reset s3;
  let t3 = Core.Cert_tree.query_count ct ~a0 ~a in
  let io3 = Emio.Io_stats.reads s3 in
  Printf.printf
    "slab adversary (N=%d, n=%d blocks, T=%d=%d):\n\
    \  §5 tree %d I/Os, certificate tree %d I/Os\n"
    n_pts (Util.blocks ~block_size n_pts) t1 t3 io1 io3

let all () =
  sec12 ();
  ablation_partitioner ();
  ablation_copies ();
  ablation_cache ();
  ablation_klowest ();
  ablation_knn ();
  ablation_locator ();
  ablation_shallow_factor ();
  ext_dynamic ();
  ext_segments ();
  ext_disks ();
  ext_cert_tree ()

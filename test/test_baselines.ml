(* Tests for the §1.2 baseline structures (linear scan, STR R-tree,
   grid file, quadtree) against the same oracle, the workload
   generators, and the §1.2 degradation claim itself. *)

open Geom

let oracle points ~slope ~icept =
  Array.fold_left
    (fun acc p ->
      if Point2.y p <= (slope *. Point2.x p) +. icept +. Eps.eps then acc + 1
      else acc)
    0 points

type impl = {
  name : string;
  build : Emio.Io_stats.t -> Point2.t array -> unit;
  count : slope:float -> icept:float -> int;
}

let make_impls block_size =
  let scan = ref None and rt = ref None and hrt = ref None and gf = ref None
  and qt = ref None in
  [
    {
      name = "linear_scan";
      build =
        (fun stats pts ->
          scan := Some (Baselines.Linear_scan.build ~stats ~block_size pts));
      count =
        (fun ~slope ~icept ->
          Baselines.Linear_scan.query_count (Option.get !scan) ~slope ~icept);
    };
    {
      name = "rtree";
      build =
        (fun stats pts -> rt := Some (Baselines.Rtree.build ~stats ~block_size pts));
      count =
        (fun ~slope ~icept ->
          Baselines.Rtree.query_count (Option.get !rt) ~slope ~icept);
    };
    {
      name = "hilbert-rtree";
      build =
        (fun stats pts ->
          hrt :=
            Some
              (Baselines.Rtree.build ~stats ~block_size
                 ~packing:Baselines.Rtree.Hilbert pts));
      count =
        (fun ~slope ~icept ->
          Baselines.Rtree.query_count (Option.get !hrt) ~slope ~icept);
    };
    {
      name = "grid_file";
      build =
        (fun stats pts ->
          gf := Some (Baselines.Grid_file.build ~stats ~block_size pts));
      count =
        (fun ~slope ~icept ->
          Baselines.Grid_file.query_count (Option.get !gf) ~slope ~icept);
    };
    {
      name = "quadtree";
      build =
        (fun stats pts ->
          qt := Some (Baselines.Quadtree.build ~stats ~block_size pts));
      count =
        (fun ~slope ~icept ->
          Baselines.Quadtree.query_count (Option.get !qt) ~slope ~icept);
    };
  ]

let test_all_match_oracle () =
  let rng = Workload.rng 1 in
  List.iter
    (fun points ->
      List.iter
        (fun impl ->
          let stats = Emio.Io_stats.create () in
          impl.build stats points;
          for _ = 1 to 20 do
            let slope, icept =
              Workload.halfplane_with_selectivity rng points
                ~fraction:(Random.State.float rng 1.)
            in
            let got = impl.count ~slope ~icept in
            let want = oracle points ~slope ~icept in
            if got <> want then
              Alcotest.failf "%s: got %d want %d" impl.name got want
          done)
        (make_impls 8))
    [
      Workload.uniform2 rng ~n:300 ~range:50.;
      Workload.clusters2 rng ~n:300 ~clusters:5 ~sigma:2. ~range:50.;
      Workload.diagonal2 rng ~n:300 ~jitter:0.1 ~range:50.;
      [||];
      [| Point2.make 1. 1. |];
    ]

let test_rtree_window () =
  let rng = Workload.rng 2 in
  let points = Workload.uniform2 rng ~n:500 ~range:10. in
  let stats = Emio.Io_stats.create () in
  let t = Baselines.Rtree.build ~stats ~block_size:8 points in
  let g = Baselines.Grid_file.build ~stats ~block_size:8 points in
  for _ = 1 to 20 do
    let x0 = Random.State.float rng 16. -. 8. in
    let y0 = Random.State.float rng 16. -. 8. in
    let w =
      { Baselines.Rect.x0; y0; x1 = x0 +. 4.; y1 = y0 +. 4. }
    in
    let want =
      Array.fold_left
        (fun acc p -> if Baselines.Rect.contains w p then acc + 1 else acc)
        0 points
    in
    Alcotest.(check int) "rtree window count" want
      (List.length (Baselines.Rtree.query_window t w));
    Alcotest.(check int) "gridfile window count" want
      (List.length (Baselines.Grid_file.query_window g w))
  done

(* §1.2: on the diagonal adversary, the quadtree and R-tree degrade to
   Θ(n) I/Os even for tiny outputs, while the §3 structure stays at
   O(log_B n + t). *)
let test_sec12_degradation () =
  let rng = Workload.rng 3 in
  let n = 8192 and block_size = 32 in
  let points = Workload.diagonal2 rng ~n ~jitter:0.01 ~range:100. in
  let n_blocks = n / block_size in
  (* query: slightly rotated diagonal through the origin -> half the
     points below, but the boundary hugs the whole diagonal... use a
     slightly LOWERED parallel diagonal for a near-empty answer *)
  let slope = 1.0 and icept = -0.02 in
  let stats_qt = Emio.Io_stats.create () in
  let qt = Baselines.Quadtree.build ~stats:stats_qt ~block_size points in
  Emio.Io_stats.reset stats_qt;
  let t_qt = Baselines.Quadtree.query_count qt ~slope ~icept in
  let ios_qt = Emio.Io_stats.reads stats_qt in
  let stats_h2 = Emio.Io_stats.create () in
  let h2 = Core.Halfspace2d.build ~stats:stats_h2 ~block_size points in
  Emio.Io_stats.reset stats_h2;
  let t_h2 = Core.Halfspace2d.query_count h2 ~slope ~icept in
  let ios_h2 = Emio.Io_stats.reads stats_h2 in
  Alcotest.(check int) "same answer" t_qt t_h2;
  (* quadtree must visit a constant fraction of its blocks; the §3
     structure a polylog number *)
  if ios_qt < n_blocks / 8 then
    Alcotest.failf "quadtree got away with %d I/Os (n=%d blocks)" ios_qt
      n_blocks;
  if ios_h2 > 60 + (8 * (t_h2 / block_size)) then
    Alcotest.failf "halfspace2d used %d I/Os for t=%d" ios_h2 t_h2;
  if ios_h2 * 4 > ios_qt then
    Alcotest.failf "expected clear separation: h2=%d qt=%d" ios_h2 ios_qt

(* workload selectivity control *)
let test_selectivity_targets () =
  let rng = Workload.rng 4 in
  let points = Workload.uniform2 rng ~n:2000 ~range:10. in
  List.iter
    (fun f ->
      let slope, icept =
        Workload.halfplane_with_selectivity rng points ~fraction:f
      in
      let got = float_of_int (oracle points ~slope ~icept) /. 2000. in
      if Float.abs (got -. f) > 0.02 then
        Alcotest.failf "fraction %g produced %g" f got)
    [ 0.01; 0.1; 0.5; 0.9 ]

let () =
  Alcotest.run "baselines"
    [
      ( "baselines",
        [
          Alcotest.test_case "all match oracle" `Quick test_all_match_oracle;
          Alcotest.test_case "rtree window" `Quick test_rtree_window;
          Alcotest.test_case "sec 1.2 degradation" `Slow test_sec12_degradation;
        ] );
      ( "workload",
        [
          Alcotest.test_case "selectivity targets" `Quick
            test_selectivity_targets;
        ] );
    ]

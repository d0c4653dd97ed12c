(* Degenerate-input tests across the library: collinear and duplicate
   points, extreme queries, tiny inputs — the inputs a downstream user
   will eventually feed it. *)

open Geom

let stats () = Emio.Io_stats.create ()

(* --- Halfspace2d ------------------------------------------------------- *)

let test_h2_collinear_points () =
  (* every point on y = x: the dual lines form a pencil through a
     single dual point *)
  let points = Array.init 200 (fun i -> Point2.make (float_of_int i) (float_of_int i)) in
  let t = Core.Halfspace2d.build ~stats:(stats ()) ~block_size:8 points in
  Alcotest.(check int) "above the diagonal: everything" 200
    (Core.Halfspace2d.query_count t ~slope:1. ~icept:0.5);
  Alcotest.(check int) "below the diagonal: nothing" 0
    (Core.Halfspace2d.query_count t ~slope:1. ~icept:(-0.5));
  Alcotest.(check int) "half" 100
    (Core.Halfspace2d.query_count t ~slope:0. ~icept:99.5)

let test_h2_same_x_points () =
  (* same x-coordinate: all dual lines are parallel *)
  let points = Array.init 150 (fun i -> Point2.make 3. (float_of_int i)) in
  let t = Core.Halfspace2d.build ~stats:(stats ()) ~block_size:8 points in
  Alcotest.(check int) "cut at 50" 50
    (Core.Halfspace2d.query_count t ~slope:0. ~icept:49.5)

let test_h2_all_identical () =
  let points = Array.make 300 (Point2.make 1. 2.) in
  let t = Core.Halfspace2d.build ~stats:(stats ()) ~block_size:8 points in
  Alcotest.(check int) "all duplicates in" 300
    (Core.Halfspace2d.query_count t ~slope:0. ~icept:2.5);
  Alcotest.(check int) "all duplicates out" 0
    (Core.Halfspace2d.query_count t ~slope:0. ~icept:1.5)

let test_h2_extreme_query_slopes () =
  let rng = Workload.rng 8 in
  let points = Workload.uniform2 rng ~n:500 ~range:10. in
  List.iter
    (fun slope ->
      let got = Core.Halfspace2d.query_count
          (Core.Halfspace2d.build ~stats:(stats ()) ~block_size:8 points)
          ~slope ~icept:0. in
      let want =
        Array.fold_left
          (fun acc p ->
            if
              Point2.y p <= (slope *. Point2.x p) +. Eps.eps
            then acc + 1
            else acc)
          0 points
      in
      Alcotest.(check int) (Printf.sprintf "slope %g" slope) want got)
    [ 1e4; -1e4; 0.; 1e-7 ]

(* --- Partition trees --------------------------------------------------- *)

let test_ptree_duplicate_points () =
  let points = Array.append
      (Array.make 100 [| 1.; 1. |])
      (Array.make 100 [| 2.; 2. |])
  in
  let t = Core.Partition_tree.build ~stats:(stats ()) ~block_size:4 ~dim:2 points in
  Alcotest.(check int) "split between clusters" 100
    (List.length (Core.Partition_tree.query_halfspace t ~a0:1.5 ~a:[| 0. |]));
  Alcotest.(check int) "everything" 200
    (List.length (Core.Partition_tree.query_halfspace t ~a0:3. ~a:[| 0. |]))

let test_ptree_1d_like_degenerate () =
  (* all points on a vertical segment: zero spread in x *)
  let points = Array.init 120 (fun i -> [| 5.; float_of_int i |]) in
  let t = Core.Partition_tree.build ~stats:(stats ()) ~block_size:4 ~dim:2 points in
  Alcotest.(check int) "cut" 60
    (List.length (Core.Partition_tree.query_halfspace t ~a0:59.5 ~a:[| 0. |]))

let test_ptree_constant_constraint () =
  let rng = Workload.rng 9 in
  let points = Workload.uniform_d rng ~n:100 ~dim:3 ~range:5. in
  let t = Core.Partition_tree.build ~stats:(stats ()) ~block_size:4 ~dim:3 points in
  (* constraint ignoring all but the last coordinate *)
  Alcotest.(check int) "z <= 100 catches all" 100
    (List.length (Core.Partition_tree.query_halfspace t ~a0:100. ~a:[| 0.; 0. |]))

let test_shallow_tree_tiny () =
  let t =
    Core.Shallow_tree.build ~stats:(stats ()) ~block_size:8 ~dim:2
      [| [| 0.; 0. |]; [| 1.; 1. |] |]
  in
  Alcotest.(check int) "one of two" 1
    (List.length (Core.Shallow_tree.query_halfspace t ~a0:0.5 ~a:[| 0. |]))

(* The §6 constants the registry adapters fix (leaf exponent a = 1.5,
   shallow factor 2) keep their range checks on the natives. *)
let expect_invalid_arg label prefix f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" label
  | exception Invalid_argument msg ->
      Alcotest.(check string)
        (label ^ ": message prefix")
        prefix
        (String.sub msg 0 (min (String.length msg) (String.length prefix)))

let test_tradeoff_exponent_range () =
  let pts = Workload.uniform3 (Workload.rng 22) ~n:64 ~range:50. in
  List.iter
    (fun a ->
      expect_invalid_arg
        (Printf.sprintf "tradeoff a = %g" a)
        "Tradeoff3d.build:"
        (fun () ->
          Core.Tradeoff3d.build ~stats:(stats ()) ~block_size:8 ~a pts))
    [ 1.0; 0.5 ]

let test_shallow_factor_range () =
  let pts = Workload.uniform_d (Workload.rng 23) ~n:64 ~dim:3 ~range:50. in
  List.iter
    (fun shallow_factor ->
      expect_invalid_arg
        (Printf.sprintf "shallow_factor = %g" shallow_factor)
        "Shallow_tree.build:"
        (fun () ->
          Core.Shallow_tree.build ~stats:(stats ()) ~block_size:8
            ~shallow_factor ~dim:3 pts))
    [ 0.; -1. ]

(* --- B-tree ------------------------------------------------------------ *)

let test_btree_all_equal_keys_spanning_leaves () =
  let stats = Emio.Io_stats.create () in
  let entries = Array.init 100 (fun i -> (7, i)) in
  let t = Xbtree.Btree.bulk_load ~stats ~block_size:4 ~cmp:compare entries in
  Alcotest.(check bool) "height > 1" true (Xbtree.Btree.height t > 1);
  (* the predecessor of a run of equal keys is its last entry, however
     many leaves the run spans *)
  Alcotest.(check bool) "pred at the key" true
    (Xbtree.Btree.predecessor t 7 = Some (7, 99));
  Alcotest.(check bool) "pred above the key" true
    (Xbtree.Btree.predecessor t 10 = Some (7, 99));
  Alcotest.(check bool) "pred below the key" true
    (Xbtree.Btree.predecessor t 6 = None)

(* --- Knn / Disk -------------------------------------------------------- *)

let test_knn_duplicates () =
  let points =
    Array.append (Array.make 5 (Point2.make 0. 0.)) [| Point2.make 10. 0. |]
  in
  let t =
    Core.Knn.build ~stats:(stats ()) ~block_size:4
      ~clip:(-20., -20., 20., 20.) points
  in
  let nn = Core.Knn.nearest t (Point2.make 0.1 0.) ~k:5 in
  Alcotest.(check int) "five results" 5 (List.length nn);
  List.iter
    (fun (p, d) ->
      Alcotest.(check bool) "all are the duplicated point" true
        (Point2.equal p (Point2.make 0. 0.));
      Alcotest.(check (float 1e-6)) "distance" 0.1 d)
    nn

let test_knn_k_zero () =
  let points = [| Point2.make 0. 0. |] in
  let t =
    Core.Knn.build ~stats:(stats ()) ~block_size:4
      ~clip:(-20., -20., 20., 20.) points
  in
  Alcotest.(check int) "k=0" 0
    (List.length (Core.Knn.nearest t (Point2.make 1. 1.) ~k:0))

(* --- Seg_intersect: collinear and touching ----------------------------- *)

let test_segments_collinear_disjoint () =
  let segments =
    [|
      (Point2.make 0. 0., Point2.make 1. 1.);
      (Point2.make 5. 5., Point2.make 6. 6.);
    |]
  in
  let t = Core.Seg_intersect.build ~stats:(stats ()) ~block_size:4 segments in
  (* a collinear probe overlapping only the first segment *)
  Alcotest.(check (list int)) "collinear overlap picks one" [ 0 ]
    (Core.Seg_intersect.query t (Point2.make 0.5 0.5) (Point2.make 2. 2.));
  Alcotest.(check (list int)) "collinear gap reports none" []
    (Core.Seg_intersect.query t (Point2.make 2. 2.) (Point2.make 4. 4.))

let test_segments_shared_endpoint () =
  let segments =
    [|
      (Point2.make 0. 0., Point2.make 5. 5.);
      (Point2.make 5. 5., Point2.make 10. 0.);
    |]
  in
  let t = Core.Seg_intersect.build ~stats:(stats ()) ~block_size:4 segments in
  (* probe through the shared apex *)
  let got = Core.Seg_intersect.query t (Point2.make 5. 0.) (Point2.make 5. 9.) in
  Alcotest.(check (list int)) "touches both" [ 0; 1 ] got

(* --- Dynamized partition tree: interleaved churn ------------------------ *)

let test_dynamic_churn () =
  let module Index = Lcsearch_index.Index in
  let (module L : Index.S) =
    Lcsearch_index.Lsm.make ~memtable_cap:8
      ~inner:(Lcsearch_index.Registry.find_exn "ptree")
      ()
  in
  let t =
    L.build
      ~params:{ Index.default_params with block_size = 4 }
      ~stats:(stats ()) (Index.Pts2 [||])
  in
  let inst = Index.Instance ((module L), t) in
  let u = Option.get (Index.updater inst) in
  let rng = Random.State.make [| 17 |] in
  let live = ref [] in
  for round = 1 to 500 do
    let h =
      u.Index.u_insert
        [| Random.State.float rng 10.; Random.State.float rng 10. |]
    in
    live := h :: !live;
    if round mod 3 = 0 then begin
      match !live with
      | h :: rest ->
          ignore (u.Index.u_delete h);
          live := rest
      | [] -> ()
    end
  done;
  Alcotest.(check int) "live count" (List.length !live) (u.Index.u_live ());
  Alcotest.(check int) "query everything" (List.length !live)
    (Index.query_count inst { Index.a0 = 100.; a = [| 0. |] })

(* --- envelopes with heavy slope collisions ----------------------------- *)

let test_envelope_many_parallel () =
  let lines =
    Array.init 50 (fun i ->
        Line2.make ~slope:(float_of_int (i mod 5)) ~icept:(float_of_int i))
  in
  let env = Envelope2.build Envelope2.Lower lines in
  (* exactly 5 distinct slopes can appear *)
  Alcotest.(check bool) "at most 5 segments" true (Envelope2.size env <= 5);
  (* lowest parallel representative is kept: intercepts 0..4 *)
  Alcotest.(check (float 1e-9)) "at x=0" 0. (Envelope2.eval env 0.)

let () =
  Alcotest.run "edge_cases"
    [
      ( "halfspace2d",
        [
          Alcotest.test_case "collinear points" `Quick test_h2_collinear_points;
          Alcotest.test_case "same-x points" `Quick test_h2_same_x_points;
          Alcotest.test_case "all identical" `Quick test_h2_all_identical;
          Alcotest.test_case "extreme slopes" `Quick
            test_h2_extreme_query_slopes;
        ] );
      ( "partition",
        [
          Alcotest.test_case "duplicate points" `Quick
            test_ptree_duplicate_points;
          Alcotest.test_case "degenerate spread" `Quick
            test_ptree_1d_like_degenerate;
          Alcotest.test_case "constant constraint" `Quick
            test_ptree_constant_constraint;
          Alcotest.test_case "tiny shallow tree" `Quick test_shallow_tree_tiny;
          Alcotest.test_case "tradeoff a <= 1" `Quick
            test_tradeoff_exponent_range;
          Alcotest.test_case "shallow factor <= 0" `Quick
            test_shallow_factor_range;
        ] );
      ( "btree",
        [
          Alcotest.test_case "equal keys across leaves" `Quick
            test_btree_all_equal_keys_spanning_leaves;
        ] );
      ( "knn",
        [
          Alcotest.test_case "duplicates" `Quick test_knn_duplicates;
          Alcotest.test_case "k = 0" `Quick test_knn_k_zero;
        ] );
      ( "segments",
        [
          Alcotest.test_case "collinear disjoint" `Quick
            test_segments_collinear_disjoint;
          Alcotest.test_case "shared endpoint" `Quick
            test_segments_shared_endpoint;
        ] );
      ( "dynamic",
        [ Alcotest.test_case "churn" `Quick test_dynamic_churn ] );
      ( "envelope",
        [
          Alcotest.test_case "many parallel lines" `Quick
            test_envelope_many_parallel;
        ] );
    ]

(* Tests for the §4 structures: Lowest_planes (Thm 4.2), Halfspace3d
   (Thm 4.4) and Knn (Thm 4.3), each against brute-force oracles, plus
   measured expected I/O bounds on the simulator. *)

open Geom

let clip = (-50., -50., 50., 50.)

let rand_planes rng n =
  Array.init n (fun _ ->
      Plane3.make
        ~a:(Random.State.float rng 4. -. 2.)
        ~b:(Random.State.float rng 4. -. 2.)
        ~c:(Random.State.float rng 40. -. 20.))

(* --- Lowest_planes ---------------------------------------------------- *)

let brute_k_lowest planes ~x ~y ~k =
  let withh =
    Array.mapi (fun i p -> (i, Plane3.eval p x y)) planes
  in
  Array.sort (fun (_, a) (_, b) -> Float.compare a b) withh;
  Array.to_list (Array.sub withh 0 (min k (Array.length withh)))

let test_k_lowest_oracle () =
  let rng = Random.State.make [| 11 |] in
  let planes = rand_planes rng 300 in
  let stats = Emio.Io_stats.create () in
  let t =
    Core.Lowest_planes.build ~stats ~block_size:8 ~clip planes
  in
  for trial = 1 to 60 do
    let x = Random.State.float rng 80. -. 40.
    and y = Random.State.float rng 80. -. 40. in
    let k = 1 + Random.State.int rng 40 in
    let got = Core.Lowest_planes.k_lowest t ~x ~y ~k in
    let want = brute_k_lowest planes ~x ~y ~k in
    if List.length got <> List.length want then
      Alcotest.failf "trial %d: got %d planes, want %d" trial
        (List.length got) (List.length want);
    List.iter2
      (fun (gi, gh) (wi, wh) ->
        (* ids must agree unless heights are (near) ties *)
        if gi <> wi && Float.abs (gh -. wh) > 1e-9 then
          Alcotest.failf "trial %d: plane %d (h=%g) vs %d (h=%g)" trial gi gh
            wi wh)
      got want
  done

let test_k_lowest_edge_cases () =
  let rng = Random.State.make [| 12 |] in
  let planes = rand_planes rng 64 in
  let stats = Emio.Io_stats.create () in
  let t = Core.Lowest_planes.build ~stats ~block_size:8 ~clip planes in
  Alcotest.(check (list (pair int (float 1.)))) "k=0" []
    (Core.Lowest_planes.k_lowest t ~x:0. ~y:0. ~k:0);
  Alcotest.(check int) "k > N clamps" 64
    (List.length (Core.Lowest_planes.k_lowest t ~x:0. ~y:0. ~k:1000));
  (* outside the clip box: exact fallback *)
  let got = Core.Lowest_planes.k_lowest t ~x:500. ~y:0. ~k:3 in
  let want = brute_k_lowest planes ~x:500. ~y:0. ~k:3 in
  Alcotest.(check (list int)) "outside clip still exact" (List.map fst want)
    (List.map fst got);
  Alcotest.(check bool) "fallback was used" true
    (Core.Lowest_planes.fallbacks t > 0)

let test_k_lowest_io_bound () =
  let rng = Random.State.make [| 13 |] in
  let n = 4096 and block_size = 32 in
  let planes = rand_planes rng n in
  let stats = Emio.Io_stats.create () in
  let t = Core.Lowest_planes.build ~stats ~block_size ~clip planes in
  (* average I/Os over random queries must be O(log_B n + k/B) *)
  let trials = 100 in
  let total = ref 0 in
  let k = 64 in
  Emio.Io_stats.reset stats;
  for _ = 1 to trials do
    let x = Random.State.float rng 80. -. 40.
    and y = Random.State.float rng 80. -. 40. in
    ignore (Core.Lowest_planes.k_lowest t ~x ~y ~k)
  done;
  total := Emio.Io_stats.reads stats;
  let avg = float_of_int !total /. float_of_int trials in
  (* TryLowestPlanes fails with probability ~delta by design and
     retries across three copies, so the constant in front of
     O(log_B n + k/B) is substantial; the budget checks the shape, the
     benches check the scaling across N. *)
  let budget = 90. +. (10. *. float_of_int (k / block_size)) in
  if avg > budget then
    Alcotest.failf "avg %g I/Os per k-lowest query (budget %g)" avg budget;
  Alcotest.(check int) "no fallbacks on in-clip queries" 0
    (Core.Lowest_planes.fallbacks t)

(* Every sample of random planes spans space, so every layer of every
   copy must be built: a kernel fault in the envelope build raises
   instead of leaving a layer missing and its queries on full scans. *)
let test_no_missing_layers () =
  let rng = Random.State.make [| 14 |] in
  let points =
    Array.init 2048 (fun _ ->
        Point3.make
          (Random.State.float rng 20. -. 10.)
          (Random.State.float rng 20. -. 10.)
          (Random.State.float rng 20. -. 10.))
  in
  let planes = Array.map Plane3.dual_plane_of_point points in
  let stats = Emio.Io_stats.create () in
  let t = Core.Lowest_planes.build ~stats ~block_size:16 planes in
  Alcotest.(check bool)
    "has layers" true
    (Core.Lowest_planes.layer_count t > 0);
  Alcotest.(check int) "no missing layer" 0
    (Core.Lowest_planes.missing_layers t)

(* --- Halfspace3d ------------------------------------------------------ *)

let rand_points3 rng n =
  Array.init n (fun _ ->
      Point3.make
        (Random.State.float rng 20. -. 10.)
        (Random.State.float rng 20. -. 10.)
        (Random.State.float rng 20. -. 10.))

let oracle3 points ~a ~b ~c =
  List.filter
    (fun p ->
      Point3.z p <= (a *. Point3.x p) +. (b *. Point3.y p) +. c +. Eps.eps)
    (Array.to_list points)

let test_halfspace3d_oracle () =
  let rng = Random.State.make [| 21 |] in
  let points = rand_points3 rng 400 in
  let stats = Emio.Io_stats.create () in
  let t = Core.Halfspace3d.build ~stats ~block_size:8 ~clip points in
  for _ = 1 to 40 do
    let a = Random.State.float rng 4. -. 2.
    and b = Random.State.float rng 4. -. 2.
    and c = Random.State.float rng 60. -. 30. in
    let got = Core.Halfspace3d.query_count t ~a ~b ~c in
    let want = List.length (oracle3 points ~a ~b ~c) in
    if got <> want then
      Alcotest.failf "halfspace (%g,%g,%g): got %d want %d" a b c got want
  done

let test_halfspace3d_extremes () =
  let rng = Random.State.make [| 22 |] in
  let points = rand_points3 rng 100 in
  let stats = Emio.Io_stats.create () in
  let t = Core.Halfspace3d.build ~stats ~block_size:8 ~clip points in
  Alcotest.(check int) "all" 100
    (Core.Halfspace3d.query_count t ~a:0. ~b:0. ~c:1e6);
  Alcotest.(check int) "none" 0
    (Core.Halfspace3d.query_count t ~a:0. ~b:0. ~c:(-1e6))

(* --- Knn -------------------------------------------------------------- *)

let test_knn_oracle () =
  let rng = Random.State.make [| 31 |] in
  let points =
    Array.init 300 (fun _ ->
        Point2.make
          (Random.State.float rng 20. -. 10.)
          (Random.State.float rng 20. -. 10.))
  in
  let stats = Emio.Io_stats.create () in
  let t = Core.Knn.build ~stats ~block_size:8 ~clip points in
  for _ = 1 to 40 do
    let q =
      Point2.make
        (Random.State.float rng 24. -. 12.)
        (Random.State.float rng 24. -. 12.)
    in
    let k = 1 + Random.State.int rng 20 in
    let got = Core.Knn.nearest t q ~k in
    let want =
      let ds = Array.map (fun p -> Point2.dist q p) points in
      Array.sort Float.compare ds;
      Array.to_list (Array.sub ds 0 k)
    in
    List.iter2
      (fun (gp, gd) wd ->
        if Float.abs (gd -. wd) > 1e-6 then
          Alcotest.failf "knn: got %s at distance %g, want %g"
            (Format.asprintf "%a" Point2.pp gp)
            gd wd)
      got want
  done

let test_knn_exact_hit () =
  let points = [| Point2.make 1. 1.; Point2.make 5. 5.; Point2.make 9. 1. |] in
  let stats = Emio.Io_stats.create () in
  let t = Core.Knn.build ~stats ~block_size:4 ~clip points in
  match Core.Knn.nearest t (Point2.make 5. 5.) ~k:1 with
  | [ (p, d) ] ->
      Alcotest.(check bool) "self" true (Point2.equal p (Point2.make 5. 5.));
      Alcotest.(check (float 1e-9)) "distance zero" 0. d
  | l -> Alcotest.failf "expected 1 neighbor, got %d" (List.length l)

(* --- Disk_range ------------------------------------------------------- *)

let test_disk_oracle () =
  let rng = Random.State.make [| 41 |] in
  let points =
    Array.init 400 (fun _ ->
        Point2.make
          (Random.State.float rng 20. -. 10.)
          (Random.State.float rng 20. -. 10.))
  in
  let stats = Emio.Io_stats.create () in
  let t = Core.Disk_range.build ~stats ~block_size:8 ~clip points in
  for _ = 1 to 40 do
    let center =
      Point2.make
        (Random.State.float rng 24. -. 12.)
        (Random.State.float rng 24. -. 12.)
    in
    let radius = Random.State.float rng 8. in
    let got = Core.Disk_range.query_count t ~center ~radius in
    let want =
      Array.fold_left
        (fun acc p ->
          if Point2.dist center p <= radius +. 1e-9 then acc + 1 else acc)
        0 points
    in
    if got <> want then
      Alcotest.failf "disk (%g,%g r=%g): got %d want %d" (Point2.x center)
        (Point2.y center) radius got want
  done

let test_disk_extremes () =
  let points = Array.init 50 (fun i -> Point2.make (float_of_int i) 0.) in
  let stats = Emio.Io_stats.create () in
  let t =
    Core.Disk_range.build ~stats ~block_size:8 ~clip:(-100., -100., 100., 100.)
      points
  in
  Alcotest.(check int) "radius 0 hits the center point" 1
    (Core.Disk_range.query_count t ~center:(Point2.make 10. 0.) ~radius:0.);
  Alcotest.(check int) "everything" 50
    (Core.Disk_range.query_count t ~center:(Point2.make 25. 0.) ~radius:100.);
  Alcotest.(check int) "nothing" 0
    (Core.Disk_range.query_count t ~center:(Point2.make 25. 30.) ~radius:1.)

let () =
  Alcotest.run "halfspace3d"
    [
      ( "lowest_planes",
        [
          Alcotest.test_case "oracle" `Quick test_k_lowest_oracle;
          Alcotest.test_case "edge cases" `Quick test_k_lowest_edge_cases;
          Alcotest.test_case "io bound (Thm 4.2)" `Slow test_k_lowest_io_bound;
          Alcotest.test_case "no missing layers" `Quick test_no_missing_layers;
        ] );
      ( "halfspace3d",
        [
          Alcotest.test_case "oracle" `Quick test_halfspace3d_oracle;
          Alcotest.test_case "extremes" `Quick test_halfspace3d_extremes;
        ] );
      ( "knn",
        [
          Alcotest.test_case "oracle" `Quick test_knn_oracle;
          Alcotest.test_case "exact hit" `Quick test_knn_exact_hit;
        ] );
      ( "disk_range",
        [
          Alcotest.test_case "oracle" `Quick test_disk_oracle;
          Alcotest.test_case "extremes" `Quick test_disk_extremes;
        ] );
    ]

(* Tests for the triangulated lower envelope with conflict lists
   (§4.1): location, height, and — critically — conflict completeness,
   the invariant TryLowestPlanes relies on. *)

open Geom

let clip = (-10., -10., 10., 10.)

let gen_planes =
  QCheck.Gen.(
    list_size (5 -- 40)
      (map3
         (fun a b c -> Plane3.make ~a ~b ~c)
         (float_range (-3.) 3.) (float_range (-3.) 3.)
         (float_range (-20.) 20.)))

let shuffled_order rng n =
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  done;
  order

(* The envelope of the first [sample_size] planes of [order], or None
   when their dual points are degenerate.  Only the hull's degeneracy
   is caught: any other exception fails the test. *)
let envelope ~planes ~order ~sample_size =
  let points = Array.map Plane3.dual_point planes in
  match Hull3.build ~points ~order ~sample_size with
  | exception Invalid_argument _ -> None
  | hull -> Some (Envelope3.build ~planes ~hull ~clip)

let build_random (planes, seed) =
  let planes = Array.of_list planes in
  let n = Array.length planes in
  let rng = Random.State.make [| seed |] in
  let order = shuffled_order rng n in
  let sample_size = 4 + Random.State.int rng (n - 3) in
  Option.map (fun t -> (planes, t, rng)) (envelope ~planes ~order ~sample_size)

let min_sample_height planes (t : Envelope3.t) x y =
  Array.fold_left
    (fun acc i -> min acc (Plane3.eval planes.(i) x y))
    infinity t.Envelope3.sample

let arb = QCheck.make QCheck.Gen.(pair gen_planes (0 -- 10_000))

let rand_xy rng =
  ( Random.State.float rng 19.8 -. 9.9,
    Random.State.float rng 19.8 -. 9.9 )

let prop_locate_and_height =
  QCheck.Test.make ~count:150
    ~name:"located triangle's plane is the lowest sample plane" arb
    (fun input ->
      match build_random input with
      | None -> true
      | Some (planes, t, rng) ->
          let ok = ref true in
          for _ = 1 to 20 do
            let x, y = rand_xy rng in
            match Envelope3.locate_brute t x y with
            | None -> ok := false (* triangles must cover the clip box *)
            | Some tri ->
                let h = Envelope3.envelope_height t tri x y in
                let want = min_sample_height planes t x y in
                if Float.abs (h -. want) > 1e-5 *. (1. +. Float.abs want) then
                  ok := false
          done;
          !ok)

(* Every non-sample plane strictly below the envelope at (x,y) must be
   in the conflict list of the triangle containing (x,y). *)
let prop_conflict_completeness =
  QCheck.Test.make ~count:150 ~name:"conflict lists are complete" arb
    (fun input ->
      match build_random input with
      | None -> true
      | Some (planes, t, rng) ->
          let in_sample = Array.make (Array.length planes) false in
          Array.iter (fun i -> in_sample.(i) <- true) t.Envelope3.sample;
          let ok = ref true in
          for _ = 1 to 20 do
            let x, y = rand_xy rng in
            match Envelope3.locate_brute t x y with
            | None -> ok := false
            | Some tri ->
                let tr = t.Envelope3.triangles.(tri) in
                let env_z = Envelope3.envelope_height t tri x y in
                Array.iteri
                  (fun g plane ->
                    if
                      (not in_sample.(g))
                      && Plane3.eval plane x y < env_z -. 1e-6
                      && not (Array.exists (fun q -> q = g) tr.conflicts)
                    then ok := false)
                  planes
          done;
          !ok)

(* Soundness: a conflicting plane really is below the envelope at one
   of its triangle's corners. *)
let prop_conflict_soundness =
  QCheck.Test.make ~count:150 ~name:"conflict lists are sound" arb
    (fun input ->
      match build_random input with
      | None -> true
      | Some (planes, t, _) ->
          Array.for_all
            (fun (tr : Envelope3.triangle) ->
              Array.for_all
                (fun g ->
                  let below_some_corner = ref false in
                  Array.iteri
                    (fun i p ->
                      let gz =
                        Plane3.eval planes.(g) (Point2.x p) (Point2.y p)
                      in
                      if gz < tr.corner_z.(i) +. 1e-6 then
                        below_some_corner := true)
                    tr.corners;
                  !below_some_corner)
                tr.conflicts)
            t.Envelope3.triangles)

let prop_conflict_size_linear =
  QCheck.Test.make ~count:100 ~name:"sum of conflicts = O(N) (Lemma 4.1a)"
    arb (fun input ->
      match build_random input with
      | None -> true
      | Some (planes, t, _) ->
          Envelope3.total_conflict_size t <= 60 * Array.length planes)

let test_single_layer_deterministic () =
  (* four tilted planes + one high plane: the high plane never appears *)
  let planes =
    [|
      Plane3.make ~a:1. ~b:0. ~c:0.;
      Plane3.make ~a:(-1.) ~b:0. ~c:0.;
      Plane3.make ~a:0. ~b:1. ~c:0.;
      Plane3.make ~a:0. ~b:(-1.) ~c:0.;
      Plane3.make ~a:0. ~b:0. ~c:100.;
    |]
  in
  let order = [| 0; 1; 2; 3; 4 |] in
  let t = Option.get (envelope ~planes ~order ~sample_size:5) in
  Alcotest.(check bool) "has triangles" true
    (Array.length t.Envelope3.triangles > 0);
  (* at the origin the envelope is at z = min(0,...) approx -? all four
     tilted planes pass through origin: envelope height 0 at (0,0)
     minus... below: at (2,0): min(2, -2, 0, 0, 100) = -2 *)
  (match Envelope3.locate_brute t 2. 0. with
  | None -> Alcotest.fail "no triangle at (2,0)"
  | Some tri ->
      Alcotest.(check int) "plane with slope -1 wins at (2,0)" 1
        t.Envelope3.triangles.(tri).Envelope3.plane);
  (* plane 4 (z=100) conflicts nowhere as part of the sample *)
  Alcotest.(check int) "no conflicts when sample = all" 0
    (Envelope3.total_conflict_size t)

let test_conflicts_of_low_plane () =
  (* sample: a slightly perturbed bowl (perturbations keep the dual
     points affinely independent); non-sample: one very low plane
     conflicting with every triangle *)
  let planes =
    [|
      Plane3.make ~a:1. ~b:0. ~c:0.05;
      Plane3.make ~a:(-1.) ~b:0. ~c:0.31;
      Plane3.make ~a:0. ~b:1. ~c:0.17;
      Plane3.make ~a:0. ~b:(-1.) ~c:(-0.23);
      Plane3.make ~a:0. ~b:0. ~c:(-1000.);
    |]
  in
  let order = [| 0; 1; 2; 3; 4 |] in
  let t = Option.get (envelope ~planes ~order ~sample_size:4) in
  Array.iter
    (fun (tr : Envelope3.triangle) ->
      Alcotest.(check (array int)) "low plane conflicts everywhere" [| 4 |]
        tr.Envelope3.conflicts)
    t.Envelope3.triangles

let () =
  Alcotest.run "envelope3"
    [
      ( "envelope3",
        [
          Alcotest.test_case "deterministic bowl" `Quick
            test_single_layer_deterministic;
          Alcotest.test_case "low plane conflicts" `Quick
            test_conflicts_of_low_plane;
          QCheck_alcotest.to_alcotest prop_locate_and_height;
          QCheck_alcotest.to_alcotest prop_conflict_completeness;
          QCheck_alcotest.to_alcotest prop_conflict_soundness;
          QCheck_alcotest.to_alcotest prop_conflict_size_linear;
        ] );
    ]

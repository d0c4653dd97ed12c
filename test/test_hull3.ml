(* Tests for the randomized incremental 3-D convex hull and its
   conflict lists (the engine of §4.1). *)

open Geom

let pt = Point3.make

let cube =
  [|
    pt 0. 0. 0.; pt 1. 0. 0.; pt 0. 1. 0.; pt 1. 1. 0.;
    pt 0. 0. 1.; pt 1. 0. 1.; pt 0. 1. 1.; pt 1. 1. 1.;
  |]

let identity_order n = Array.init n Fun.id

let test_cube () =
  let t =
    Hull3.build ~points:cube ~order:(identity_order 8) ~sample_size:8
  in
  Alcotest.(check int) "12 triangles" 12 (Array.length (Hull3.facets t));
  Alcotest.(check (list int)) "all 8 vertices" [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    (Hull3.vertex_ids t);
  Alcotest.(check bool) "oracle" true (Hull3.check ~points:cube t);
  (* exactly two lower facets (the bottom face, triangulated) *)
  Alcotest.(check int) "2 lower facets" 2 (Array.length (Hull3.lower_facets t))

let test_interior_point_not_vertex () =
  let points = Array.append cube [| pt 0.5 0.5 0.5 |] in
  let t =
    Hull3.build ~points ~order:(identity_order 9) ~sample_size:9
  in
  Alcotest.(check bool) "interior point excluded" false
    (List.mem 8 (Hull3.vertex_ids t));
  Alcotest.(check bool) "oracle" true (Hull3.check ~points t)

let test_conflicts_partial_sample () =
  (* sample = cube corners; extra points: one inside (no conflicts),
     one far outside (conflicts with some facet) *)
  let points = Array.append cube [| pt 0.5 0.5 0.5; pt 5. 5. 5. |] in
  let t =
    Hull3.build ~points ~order:(identity_order 10) ~sample_size:8
  in
  Alcotest.(check bool) "oracle validates conflicts" true
    (Hull3.check ~points t);
  let facets = Hull3.facets t in
  let conflict_ids =
    Array.fold_left
      (fun acc (f : Hull3.facet) ->
        Array.fold_left (fun acc q -> q :: acc) acc f.conflicts)
      [] facets
  in
  Alcotest.(check bool) "inside point conflicts nowhere" false
    (List.mem 8 conflict_ids);
  Alcotest.(check bool) "outside point conflicts somewhere" true
    (List.mem 9 conflict_ids)

let test_degenerate_rejected () =
  let flat = Array.init 6 (fun i -> pt (float i) (float (i * i)) 0.) in
  Alcotest.check_raises "coplanar input"
    (Invalid_argument "Hull3.build: degenerate sample (coplanar points)")
    (fun () ->
      ignore (Hull3.build ~points:flat ~order:(identity_order 6) ~sample_size:6))

let gen_points3 =
  QCheck.Gen.(
    list_size (4 -- 60)
      (map3
         (fun x y z -> pt x y z)
         (float_range (-10.) 10.) (float_range (-10.) 10.)
         (float_range (-10.) 10.)))

let prop_hull_oracle =
  QCheck.Test.make ~count:150 ~name:"hull + conflicts match brute force"
    (QCheck.make QCheck.Gen.(pair gen_points3 (0 -- 1000)))
    (fun (pts, seed) ->
      let points = Array.of_list pts in
      let n = Array.length points in
      let rng = Random.State.make [| seed |] in
      let order = identity_order n in
      (* random permutation *)
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let tmp = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- tmp
      done;
      let sample_size = 4 + Random.State.int rng (n - 3) in
      match Hull3.build ~points ~order ~sample_size with
      | t ->
          (* exported conflicts are copied unfiltered: no sample point
             may be among them *)
          Hull3.check ~points t
          && Array.for_all
               (fun (f : Hull3.facet) ->
                 Array.for_all (fun q -> not (Hull3.in_sample t q)) f.conflicts)
               (Hull3.facets t)
      | exception Invalid_argument _ -> true (* degenerate random sample *))

let prop_euler_formula =
  QCheck.Test.make ~count:100 ~name:"triangulated hull satisfies F = 2V - 4"
    (QCheck.make gen_points3) (fun pts ->
      let points = Array.of_list pts in
      let n = Array.length points in
      match
        Hull3.build ~points ~order:(identity_order n) ~sample_size:n
      with
      | t ->
          let f = Array.length (Hull3.facets t) in
          let v = List.length (Hull3.vertex_ids t) in
          f = (2 * v) - 4
      | exception Invalid_argument _ -> true)

(* --- pinned outputs ---------------------------------------------- *)

(* The hull is a build kernel shared by h3, shallow, tradeoff and cert:
   its facets, their creation order, their normals and the order of
   every conflict list flow into snapshot bytes.  These digests were
   recorded from the list-and-Hashtbl implementation that the flat
   kernel replaced; the flat kernel must reproduce them bit for bit. *)

let shuffled rng n =
  let order = identity_order n in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  done;
  order

let uniform_points rng n =
  Array.init n (fun _ ->
      let c () = Random.State.float rng 20. -. 10. in
      let x = c () in
      let y = c () in
      pt x y (c ()))

(* Near a paraboloid: most points are hull vertices. *)
let paraboloid_points rng n =
  Array.init n (fun _ ->
      let x = Random.State.float rng 6. -. 3. in
      let y = Random.State.float rng 6. -. 3. in
      pt x y ((x *. x) +. (y *. y) +. Random.State.float rng 0.01))

(* Dual points of random planes, as Envelope3 feeds them. *)
let dual_points rng n =
  Array.init n (fun _ ->
      let a = Random.State.float rng 6. -. 3. in
      let b = Random.State.float rng 6. -. 3. in
      Plane3.dual_point
        (Plane3.make ~a ~b ~c:(Random.State.float rng 40. -. 20.)))

(* Integer grid, each point lifted by 0 or 1 off the plane z = x + 2y:
   many exactly coplanar quadruples, all volumes exact. *)
let grid_points rng side =
  Array.init (side * side) (fun i ->
      let x = i mod side and y = i / side in
      pt (float x) (float y) (float (x + (2 * y) + Random.State.int rng 2)))

(* Integer lattice cube: every face is a coplanar grid. *)
let lattice_points side =
  Array.init (side * side * side) (fun i ->
      pt (float (i mod side)) (float (i / side mod side))
        (float (i / (side * side))))

(* A tetrahedron and twelve points within ~3e-14 of volume [vol_eps]
   above its face (0, 1, 2): for each, evaluating the visibility test
   as ((nx dx + ny dy) + nz dz) and as (nx dx + (ny dy + nz dz)) lands
   on different sides of the threshold, so these cases fail if the
   test's expression tree changes. *)
let near_threshold =
  [|
    pt 0.1 0.2 0.3;
    pt 7.3 1.1 0.7;
    pt 2.9 6.7 1.9;
    pt 3.3 2.9 (-9.1);
    pt 3.3074651719880497 2.1860693031861964 0.8504918779052073;
    pt 1.2854083607672993 1.6751056354336984 0.6775106663956759;
    pt 1.6478489755667085 2.963631311325796 0.9896402540751053;
    pt 3.0283437447933768 2.2574523669755986 0.8599454237015931;
    pt 2.9229134085544297 1.8819802659626041 0.7689967100481983;
    pt 1.7085651180016208 2.319654033382716 0.8399805213428663;
    pt 2.082516930390741 1.907005210095039 0.7528584874715823;
    pt 2.228184610861046 2.2340350157879945 0.8334837017568643;
    pt 1.9340597659884606 2.986497654440266 1.0025086932187304;
    pt 1.2081885437141247 1.4798569409834639 0.6296298757438213;
    pt 1.234005669456951 1.8595458288691038 0.7194833603841179;
    pt 1.738063745363226 2.1164665475704307 0.7930308500531577;
  |]

let digest_hull t =
  let b = Buffer.create 4096 in
  let facet tag (f : Hull3.facet) =
    let bits v = Int64.bits_of_float v in
    Printf.bprintf b "%s %d %d %d %Lx %Lx %Lx:" tag f.a f.b f.c
      (bits (Point3.x f.normal)) (bits (Point3.y f.normal))
      (bits (Point3.z f.normal));
    Array.iter (Printf.bprintf b " %d") f.conflicts;
    Buffer.add_char b '\n'
  in
  Array.iter (facet "f") (Hull3.facets t);
  Array.iter (facet "l") (Hull3.lower_facets t);
  List.iter (Printf.bprintf b "v %d\n") (Hull3.vertex_ids t);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Six coplanar points first (corners and edge midpoints of a square
   in z = 1), then uniform points: prefixes of 4 to 6 points have no
   tetrahedron, longer ones do. *)
let coplanar_start rng =
  Array.append
    [|
      pt (-5.) (-5.) 1.; pt 5. (-5.) 1.; pt 5. 5. 1.; pt (-5.) 5. 1.;
      pt 0. (-5.) 1.; pt 5. 0. 1.;
    |]
    (uniform_points rng 60)

(* name, points, order, sample size, expected digest *)
let hull_digest_cases =
  let rng seed = Random.State.make [| seed |] in
  let shuffled_case name seed points ~sample =
    let n = Array.length points in
    (name, points, shuffled (rng (seed + 1000)) n, sample n)
  in
  let identity_case name points ~sample =
    let n = Array.length points in
    (name, points, identity_order n, sample n)
  in
  let full n = n and quarter n = max 4 (n / 4) and eighth n = max 4 (n / 8) in
  [
    shuffled_case "uniform 300 shuffled" 1 (uniform_points (rng 1) 300)
      ~sample:full;
    shuffled_case "uniform 300 shuffled, seed 2" 2
      (uniform_points (rng 2) 300) ~sample:full;
    shuffled_case "uniform 1000 shuffled" 3 (uniform_points (rng 3) 1000)
      ~sample:full;
    shuffled_case "uniform 400 quarter sample" 4
      (uniform_points (rng 4) 400) ~sample:quarter;
    shuffled_case "uniform 800 eighth sample" 5
      (uniform_points (rng 5) 800) ~sample:eighth;
    identity_case "uniform 300 identity" (uniform_points (rng 6) 300)
      ~sample:full;
    identity_case "uniform 500 identity half" (uniform_points (rng 7) 500)
      ~sample:(fun n -> n / 2);
    shuffled_case "paraboloid 300 shuffled" 8
      (paraboloid_points (rng 8) 300) ~sample:full;
    shuffled_case "paraboloid 600 quarter sample" 9
      (paraboloid_points (rng 9) 600) ~sample:quarter;
    identity_case "paraboloid 300 identity" (paraboloid_points (rng 10) 300)
      ~sample:full;
    shuffled_case "dual planes 500 shuffled" 11 (dual_points (rng 11) 500)
      ~sample:full;
    shuffled_case "dual planes 1000 eighth sample" 12
      (dual_points (rng 12) 1000) ~sample:eighth;
    identity_case "dual planes 400 identity" (dual_points (rng 13) 400)
      ~sample:full;
    shuffled_case "grid 12x12 shuffled" 14 (grid_points (rng 14) 12)
      ~sample:full;
    shuffled_case "grid 16x16 quarter sample" 15 (grid_points (rng 15) 16)
      ~sample:quarter;
    identity_case "grid 10x10 identity" (grid_points (rng 16) 10)
      ~sample:full;
    shuffled_case "lattice 5^3 shuffled" 17 (lattice_points 5) ~sample:full;
    identity_case "lattice 4^3 identity" (lattice_points 4) ~sample:full;
    shuffled_case "lattice 6^3 half sample" 18 (lattice_points 6)
      ~sample:(fun n -> n / 2);
    shuffled_case "cube plus uniform shuffled" 19
      (Array.append cube (uniform_points (rng 19) 60))
      ~sample:full;
    identity_case "near threshold, tetrahedron sample" near_threshold
      ~sample:(fun _ -> 4);
    identity_case "near threshold, all inserted" near_threshold ~sample:full;
    identity_case "coplanar start, all inserted" (coplanar_start (rng 20))
      ~sample:full;
  ]

(* In the order of [hull_digest_cases]. *)
let hull_digests_expected =
  [|
    "921b8e5ef05c9aee1ff69cbac91c7c4c";
    "a491bac21c7ef1d14e655120879b810c";
    "242e6bac011ec9d93b5779a1ebe176ca";
    "629ddde88f0c9dc0e5b8a0a2fc68bfdf";
    "bfe490dbc79653228c15e3909e0d717e";
    "9223d44017e003aebbd4d13c5f7f56dc";
    "0269d4d03949b884d9aeb6fdeef11223";
    "b07e130a59fcbb140a18cffac3e74fa6";
    "af161ce1a383f0af390941b3ae4a3138";
    "12f63b0ca59912f126d5724d1ab100ad";
    "7d99d7290aa7396a981ba228e71a5800";
    "1171d5cee4b5ce32f8b0df4cbe55fa17";
    "0a09fdfda94714388e35681b29d278f1";
    "b44ec7d996db9e3b2404a9f37e27a4de";
    "8cb207a36a4810a609163548f12d7eb4";
    "6ac507e049706b7abcfb47eaf6fe84bc";
    "55a942fb7ff1e0196b3690278d915439";
    "bf6e53c5aba0c7764b7ac774bcbe11f1";
    "4b72f1773cbc8761c66c37233b97c491";
    "3e8b300e3201ddd192fbfa25c93cf846";
    "2d880ead79123fc02d167b9ab40971ca";
    "ce658b802ed9b51fe497118154a98e9d";
    "6e1aff446a3c0781818abfa02aa7d4b6";
  |]

let test_hull_digests () =
  List.iteri
    (fun i (name, points, order, sample_size) ->
      let got =
        match Hull3.build ~points ~order ~sample_size with
        | t -> digest_hull t
        | exception Invalid_argument _ -> "degenerate"
      in
      Alcotest.(check string) name hull_digests_expected.(i) got)
    hull_digest_cases

(* One insertion loop exports every prefix k: each must be bit-equal
   (facets, normals, conflicts, vertices) to a hull built for k alone,
   and degenerate exactly where that build is.  Every k up to 300
   points; past that, to keep the n standalone builds cheap, every k
   up to 64, every 37th and the last. *)
let test_prefix_exports () =
  List.iter
    (fun (name, points, order, _) ->
      let n = Array.length points in
      let prefixes =
        List.filter
          (fun k -> n <= 300 || k <= 64 || k mod 37 = 0 || k = n)
          (List.init (n - 3) (fun i -> i + 4))
        |> Array.of_list
      in
      let exported =
        Hull3.map_prefixes ~points ~order ~prefixes (Option.map digest_hull)
      in
      Array.iteri
        (fun i k ->
          let alone =
            match Hull3.build ~points ~order ~sample_size:k with
            | t -> Some (digest_hull t)
            | exception Invalid_argument _ -> None
          in
          Alcotest.(check (option string))
            (Printf.sprintf "%s, prefix %d" name k)
            alone exported.(i))
        prefixes)
    hull_digest_cases;
  let points = coplanar_start (Random.State.make [| 20 |]) in
  let order = identity_order (Array.length points) in
  Alcotest.(check (list bool))
    "coplanar start: no hull below 7 points" [ false; false; false; true ]
    (Array.to_list
       (Hull3.map_prefixes ~points ~order ~prefixes:[| 4; 5; 6; 7 |]
          Option.is_some))

let () =
  Alcotest.run "hull3"
    [
      ( "hull3",
        [
          Alcotest.test_case "cube" `Quick test_cube;
          Alcotest.test_case "interior point" `Quick
            test_interior_point_not_vertex;
          Alcotest.test_case "partial sample conflicts" `Quick
            test_conflicts_partial_sample;
          Alcotest.test_case "degenerate rejected" `Quick
            test_degenerate_rejected;
          QCheck_alcotest.to_alcotest prop_hull_oracle;
          QCheck_alcotest.to_alcotest prop_euler_formula;
          Alcotest.test_case "digests pinned" `Quick test_hull_digests;
          Alcotest.test_case "prefix exports = standalone builds" `Quick
            test_prefix_exports;
        ] );
    ]

(* Tests for the certificate-enhanced 3-D partition tree (Cert_tree):
   correctness against the brute oracle, agreement with the plain §5
   tree, and the output-sensitive visit bound. *)

open Geom

let rand_points3 rng n =
  Array.init n (fun _ ->
      Point3.make
        (Random.State.float rng 20. -. 10.)
        (Random.State.float rng 20. -. 10.)
        (Random.State.float rng 20. -. 10.))

let oracle points ~a0 ~a =
  let below p =
    Point3.z p
    <= (a.(0) *. Point3.x p) +. (a.(1) *. Point3.y p) +. a0 +. Eps.eps
  in
  List.filter (fun i -> below points.(i))
    (List.init (Array.length points) Fun.id)

let test_oracle () =
  let rng = Random.State.make [| 61 |] in
  let points = rand_points3 rng 800 in
  let stats = Emio.Io_stats.create () in
  let t = Core.Cert_tree.build ~stats ~block_size:8 points in
  for _ = 1 to 40 do
    let a =
      [| Random.State.float rng 2. -. 1.; Random.State.float rng 2. -. 1. |]
    in
    let a0 = Random.State.float rng 30. -. 15. in
    let got = List.sort compare (Core.Cert_tree.query_ids t ~a0 ~a) in
    let want = oracle points ~a0 ~a in
    if got <> want then
      Alcotest.failf "cert tree: got %d want %d" (List.length got)
        (List.length want)
  done

let prop_agrees_with_partition_tree =
  QCheck.Test.make ~count:40 ~name:"Cert_tree = Partition_tree"
    QCheck.(pair (int_range 0 10_000) (int_range 30 400))
    (fun (seed, n) ->
      let rng = Random.State.make [| seed |] in
      let points = rand_points3 rng n in
      let coords =
        Array.map (fun p -> [| Point3.x p; Point3.y p; Point3.z p |]) points
      in
      let stats () = Emio.Io_stats.create () in
      let ct = Core.Cert_tree.build ~stats:(stats ()) ~block_size:8 points in
      let pt =
        Core.Partition_tree.build ~stats:(stats ()) ~block_size:8 ~dim:3 coords
      in
      List.for_all
        (fun _ ->
          let a =
            [| Random.State.float rng 2. -. 1.; Random.State.float rng 2. -. 1. |]
          in
          let a0 = Random.State.float rng 40. -. 20. in
          List.sort compare (Core.Cert_tree.query_ids ct ~a0 ~a)
          = List.sort compare (Core.Partition_tree.query_halfspace pt ~a0 ~a))
        (List.init 8 Fun.id))

let test_output_sensitive_visits () =
  (* near-empty queries must visit O(depth) nodes, far below the plain
     tree's Θ(n^{2/3}) recursion *)
  let rng = Random.State.make [| 62 |] in
  let n = 32768 and block_size = 64 in
  let points = rand_points3 rng n in
  let stats = Emio.Io_stats.create () in
  let t = Core.Cert_tree.build ~stats ~block_size points in
  (* a plane below everything: T = 0 *)
  Emio.Io_stats.reset stats;
  let c = Core.Cert_tree.query_count t ~a0:(-100.) ~a:[| 0.; 0. |] in
  Alcotest.(check int) "empty answer" 0 c;
  let visited = Core.Cert_tree.last_visited_nodes t in
  if visited > 12 then
    Alcotest.failf "T=0 query visited %d nodes (want O(depth))" visited;
  (* a shallow plane with a small output *)
  let a = [| 0.3; -0.2 |] in
  let residuals =
    Array.map
      (fun p -> Point3.z p -. (a.(0) *. Point3.x p) -. (a.(1) *. Point3.y p))
      points
  in
  Array.sort Float.compare residuals;
  let a0 = residuals.(63) in
  (* T = 64 *)
  Emio.Io_stats.reset stats;
  let c = Core.Cert_tree.query_count t ~a0 ~a in
  Alcotest.(check bool) "small output" true (c >= 60 && c <= 70);
  let visited = Core.Cert_tree.last_visited_nodes t in
  let ios = Emio.Io_stats.reads stats in
  if visited > 80 then
    Alcotest.failf "T=64 query visited %d nodes" visited;
  if ios > 200 then Alcotest.failf "T=64 query used %d I/Os" ios

let test_space_overhead_bounded () =
  let rng = Random.State.make [| 63 |] in
  let n = 16384 and block_size = 64 in
  let points = rand_points3 rng n in
  let stats = Emio.Io_stats.create () in
  let t = Core.Cert_tree.build ~stats ~block_size points in
  let nb = n / block_size in
  let space = Core.Cert_tree.space_blocks t in
  if space > 6 * nb then
    Alcotest.failf "space %d blocks exceeds 6n = %d (certs: %d items)" space
      (6 * nb)
      (Core.Cert_tree.certificate_items t)

let test_tiny_inputs () =
  let stats = Emio.Io_stats.create () in
  let t = Core.Cert_tree.build ~stats ~block_size:4 [||] in
  Alcotest.(check int) "empty" 0 (Core.Cert_tree.query_count t ~a0:0. ~a:[| 0.; 0. |]);
  let t1 =
    Core.Cert_tree.build ~stats ~block_size:4 [| Point3.make 1. 2. 3. |]
  in
  Alcotest.(check int) "singleton hit" 1
    (Core.Cert_tree.query_count t1 ~a0:5. ~a:[| 0.; 0. |]);
  Alcotest.(check int) "singleton miss" 0
    (Core.Cert_tree.query_count t1 ~a0:0. ~a:[| 0.; 0. |])

(* --- certificate order --------------------------------------------- *)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

(* A certificate is a vertex set: its hull is built in a shuffled
   order and stored in ascending position, and a file that stores the
   same sets in another order (as files written before the order was
   fixed do) must answer every query with the same count and the same
   model reads.  The reader below decodes the skeleton and permutes
   the vertices of every certificate before reviving the tree. *)
let test_permuted_certificates () =
  let rng = Random.State.make [| 64 |] in
  let points = rand_points3 rng 4096 in
  let t =
    Core.Cert_tree.build ~stats:(Emio.Io_stats.create ()) ~block_size:16
      points
  in
  let path = Filename.temp_file "cert" ".idx" in
  Diskstore.Snapshot.save_as Core.Cert_tree.snapshot t ~path ();
  let moved = ref 0 in
  let permute vs =
    let out = shuffle rng vs in
    if out <> vs then incr moved;
    out
  in
  let permuted =
    let read_only _ = invalid_arg "read-only format" in
    Diskstore.Snapshot.format
      ~kind:(Diskstore.Snapshot.kind Core.Cert_tree.snapshot)
      ~version:2 ~codec:Core.Cert_tree.portable_codec ~payload:read_only
      ~to_skeleton:read_only
      ~of_skeleton:(fun ~stats ~backend p ->
        Core.Cert_tree.of_portable ~stats ~backend
          (Core.Cert_tree.map_certificates permute p))
  in
  let reopen format =
    let stats = Emio.Io_stats.create () in
    match Diskstore.Snapshot.open_as format ~stats path with
    | Ok (t, _) -> (t, stats)
    | Error e -> Alcotest.fail (Diskstore.Snapshot.error_to_string e)
  in
  let t1, s1 = reopen Core.Cert_tree.snapshot in
  let t2, s2 = reopen permuted in
  Sys.remove path;
  if !moved < 10 then Alcotest.failf "only %d certificates moved" !moved;
  for i = 1 to 200 do
    let a =
      [| Random.State.float rng 2. -. 1.; Random.State.float rng 2. -. 1. |]
    in
    let a0 = Random.State.float rng 30. -. 15. in
    Emio.Io_stats.reset s1;
    Emio.Io_stats.reset s2;
    let c1 = Core.Cert_tree.query_count t1 ~a0 ~a in
    let c2 = Core.Cert_tree.query_count t2 ~a0 ~a in
    Alcotest.(check int) (Printf.sprintf "query %d count" i) c1 c2;
    Alcotest.(check int)
      (Printf.sprintf "query %d model reads" i)
      (Emio.Io_stats.reads s1) (Emio.Io_stats.reads s2);
    Alcotest.(check int)
      (Printf.sprintf "query %d matches the build" i)
      (Core.Cert_tree.query_count t ~a0 ~a)
      c1
  done

(* Two insertion orders, the same certificates, position for
   position, each listed by ascending position. *)
let test_certificates_order_free () =
  let rng = Random.State.make [| 65 |] in
  List.iter
    (fun n ->
      let points = rand_points3 rng n in
      let identity = Array.init n Fun.id in
      let want = Core.Cert_tree.hull_certificates ~order:identity points in
      let ascending vs =
        Array.for_all Fun.id
          (Array.init (Array.length vs - 1) (fun i -> vs.(i) < vs.(i + 1)))
      in
      (match want with
      | None -> Alcotest.fail "no hull"
      | Some (lower, upper) ->
          Alcotest.(check bool)
            (Printf.sprintf "n = %d ascending" n)
            true
            (ascending lower && ascending upper));
      for _ = 1 to 3 do
        let got =
          Core.Cert_tree.hull_certificates ~order:(shuffle rng identity) points
        in
        Alcotest.(check (option (pair (array int) (array int))))
          (Printf.sprintf "n = %d" n) want got
      done)
    [ 5; 40; 300; 2000 ]

let () =
  Alcotest.run "cert_tree"
    [
      ( "cert_tree",
        [
          Alcotest.test_case "oracle" `Quick test_oracle;
          QCheck_alcotest.to_alcotest prop_agrees_with_partition_tree;
          Alcotest.test_case "output-sensitive visits" `Slow
            test_output_sensitive_visits;
          Alcotest.test_case "space overhead" `Slow test_space_overhead_bounded;
          Alcotest.test_case "tiny inputs" `Quick test_tiny_inputs;
          Alcotest.test_case "permuted certificates answer alike" `Quick
            test_permuted_certificates;
          Alcotest.test_case "certificates independent of insertion order"
            `Quick test_certificates_order_free;
        ] );
    ]

(* Tests for the k-level walk (§2.3) and the greedy 3k-clustering
   (§3.1): Lemma 3.1, Lemma 3.2 and Corollary 3.3 invariants. *)

open Geom

let line s i = Line2.make ~slope:s ~icept:i

(* Random pairwise-distinct lines in generic position. *)
let gen_lines =
  QCheck.Gen.(
    let* n = 3 -- 25 in
    let* slopes = list_repeat n (float_range (-10.) 10.) in
    let* icepts = list_repeat n (float_range (-10.) 10.) in
    let lines = List.map2 (fun s i -> line s i) slopes icepts in
    (* drop duplicates (vanishingly rare, but the walk requires
       distinct lines) *)
    let tbl = Hashtbl.create 16 in
    let lines =
      List.filter
        (fun l ->
          let k = (Line2.slope l, Line2.icept l) in
          if Hashtbl.mem tbl k then false
          else begin
            Hashtbl.add tbl k ();
            true
          end)
        lines
    in
    return (Array.of_list lines))

let gen_lines_and_k =
  QCheck.Gen.(
    let* lines = gen_lines in
    let* k = 0 -- (Array.length lines - 1) in
    return (lines, k))

let arb_lines_and_k =
  QCheck.make gen_lines_and_k
    ~print:(fun (lines, k) ->
      Printf.sprintf "k=%d lines=[%s]" k
        (String.concat "; "
           (Array.to_list
              (Array.map
                 (fun l ->
                   Printf.sprintf "(%g,%g)" (Line2.slope l) (Line2.icept l))
                 lines))))

(* --- level walk ------------------------------------------------------- *)

let test_level_triangle () =
  (* Lines y=x, y=-x, y=-2: the 1-level runs along y=-2, climbs onto
     y=x at (-2,-2), switches to y=-x at the apex (0,0) and returns to
     y=-2 at (2,-2): three vertices. *)
  let lines = [| line 1. 0.; line (-1.) 0.; line 0. (-2.) |] in
  let level = Arrangement.Level_walk.walk ~lines ~k:1 () in
  Alcotest.(check int) "complexity" 3
    (Arrangement.Level_walk.complexity level);
  Alcotest.(check (array int)) "edge lines" [| 2; 0; 1; 2 |] level.edge_lines;
  Alcotest.(check bool) "valid" true
    (Arrangement.Level_walk.check_level ~lines ~k:1 level)

let test_level_zero_is_lower_envelope () =
  let lines = [| line 1. 0.; line 0. 1.; line (-1.) 4. |] in
  let level = Arrangement.Level_walk.walk ~lines ~k:0 () in
  (* must follow the lower envelope: segments of lines 0, 1, 2 *)
  Alcotest.(check (array int)) "edges" [| 0; 1; 2 |] level.edge_lines;
  Alcotest.(check bool) "valid" true
    (Arrangement.Level_walk.check_level ~lines ~k:0 level)

let test_level_parallel_lines () =
  (* Parallel lines never cross: every level is a single full line. *)
  let lines = [| line 1. 0.; line 1. 1.; line 1. 2. |] in
  for k = 0 to 2 do
    let level = Arrangement.Level_walk.walk ~lines ~k () in
    Alcotest.(check int) "no vertices" 0
      (Arrangement.Level_walk.complexity level);
    Alcotest.(check int) "edge is the k-th lowest" k level.edge_lines.(0)
  done

let prop_level_walk_valid =
  QCheck.Test.make ~count:300 ~name:"level walk is exact (brute check)"
    arb_lines_and_k (fun (lines, k) ->
      let level = Arrangement.Level_walk.walk ~lines ~k () in
      Arrangement.Level_walk.check_level ~lines ~k level)

let prop_level_events_alternate_consistently =
  QCheck.Test.make ~count:200 ~name:"event stream matches level edges"
    arb_lines_and_k (fun (lines, k) ->
      let events = ref [] in
      let level =
        Arrangement.Level_walk.walk
          ~on_event:(fun ev ~below_after:_ -> events := ev :: !events)
          ~lines ~k ()
      in
      let events = Array.of_list (List.rev !events) in
      Array.length events = Array.length level.vertices
      && Array.for_all2
           (fun (ev : Arrangement.Level_walk.event) v ->
             Point2.equal ev.vertex v)
           events level.vertices)

let prop_below_after_has_k_lines =
  QCheck.Test.make ~count:200 ~name:"|L^-| = k after every vertex"
    arb_lines_and_k (fun (lines, k) ->
      let ok = ref true in
      ignore
        (Arrangement.Level_walk.walk
           ~on_event:(fun _ ~below_after ->
             if List.length (below_after ()) <> k then ok := false)
           ~lines ~k ());
      !ok)

(* Two lines cross the current edge line at exactly the same abscissa:
   line 0 (y = 2x) is the 0-level at x = -infinity, and lines 1 (y = 2)
   and 2 (y = x + 1) both meet it at (1, 2), in exact arithmetic.  The
   scan keeps the first strict minimum, so the lower id wins; line 3
   (y = 2x + 5) is parallel to line 0 and is never crossed. *)
let test_next_crossing_tie_break () =
  let lines = [| line 2. 0.; line 0. 2.; line 1. 1.; line 2. 5. |] in
  let level = Arrangement.Level_walk.walk ~lines ~k:0 () in
  Alcotest.(check (array int)) "tie goes to the lower id" [| 0; 1 |]
    level.edge_lines;
  Alcotest.(check (float 0.)) "at the shared abscissa" 1.
    (Point2.x level.vertices.(0));
  for k = 0 to Array.length lines - 1 do
    ignore
      (Arrangement.Level_walk.walk
         ~on_event:(fun (ev : Arrangement.Level_walk.event) ~below_after:_ ->
           Alcotest.(check bool)
             (Printf.sprintf "k=%d: %d -> %d not parallel" k ev.incoming
                ev.outgoing)
             false
             (Line2.slope lines.(ev.incoming)
             = Line2.slope lines.(ev.outgoing)))
         ~lines ~k ())
  done

(* The walk is a build kernel of h2: its edge lines, vertices and event
   stream flow into snapshot bytes.  These digests were recorded from
   the record-scanning implementation that the flat scan replaced; the
   flat scan must reproduce them bit for bit. *)

let digest_walk lines ~k =
  let b = Buffer.create 4096 in
  let bits v = Int64.bits_of_float v in
  let point p =
    Printf.bprintf b " %Lx %Lx" (bits (Point2.x p)) (bits (Point2.y p))
  in
  let level =
    Arrangement.Level_walk.walk
      ~on_event:(fun (ev : Arrangement.Level_walk.event) ~below_after ->
        Printf.bprintf b "e %s %d %d"
          (match ev.kind with Convex -> "v" | Concave -> "^")
          ev.incoming ev.outgoing;
        point ev.vertex;
        Buffer.add_string b " |";
        List.iter (Printf.bprintf b " %d")
          (List.sort Int.compare (below_after ()));
        Buffer.add_char b '\n')
      ~lines ~k ()
  in
  Array.iter (Printf.bprintf b "l %d\n") level.edge_lines;
  Array.iter
    (fun v ->
      Buffer.add_char b 'p';
      point v;
      Buffer.add_char b '\n')
    level.vertices;
  Digest.to_hex (Digest.string (Buffer.contents b))

let distinct lines =
  let tbl = Hashtbl.create 64 in
  List.filter
    (fun l ->
      let key = (Line2.slope l, Line2.icept l) in
      if Hashtbl.mem tbl key then false
      else begin
        Hashtbl.add tbl key ();
        true
      end)
    lines
  |> Array.of_list

let random_lines seed n =
  let rng = Random.State.make [| seed |] in
  distinct
    (List.init n (fun _ ->
         let s = Random.State.float rng 20. -. 10. in
         line s (Random.State.float rng 20. -. 10.)))

(* Small integer slopes and intercepts: many parallel families and many
   lines through a common vertex, so exact ties in the scan. *)
let integer_lines seed n =
  let rng = Random.State.make [| seed |] in
  distinct
    (List.init n (fun _ ->
         let s = float (Random.State.int rng 7 - 3) in
         line s (float (Random.State.int rng 11 - 5))))

(* name, lines, k *)
let walk_digest_cases =
  let r = random_lines and i = integer_lines in
  [
    ("random 200, k=0", r 1 200, 0);
    ("random 200, k=1", r 1 200, 1);
    ("random 200, k=50", r 2 200, 50);
    ("random 200, k=100", r 3 200, 100);
    ("random 200, k=199", r 4 200, 199);
    ("random 500, k=17", r 5 500, 17);
    ("random 500, k=250", r 6 500, 250);
    ("integer 60, k=0", i 7 60, 0);
    ("integer 60, k=5", i 8 60, 5);
    ("integer 60, k=20", i 9 60, 20);
    ("integer 80, k=30", i 10 80, 30);
    ("parallel only", Array.init 9 (fun c -> line 1.5 (float c)), 4);
    ( "parallel pairs",
      Array.init 40 (fun j -> line (float (j mod 4)) (float (j / 4))),
      13 );
  ]

(* In the order of [walk_digest_cases]. *)
let walk_digests_expected =
  [|
    "5c88823149b42f5d3d004c25f36ebed8";
    "5b8321e5584f18e4a8620c1940e0a69e";
    "cfe63dfce41af363e46023958c1ba51b";
    "50c7233ddf5448d6aa529958a0aa9d6b";
    "095af16d382d161fb642cf465919e383";
    "81757b9e12a96bf8ed1c6341ab2e364f";
    "79f20ad13cabef5b0b129c8bcffb8d49";
    "8c225c4550cadc141d795bf891525785";
    "a8d3c69ce2a1e93221461a09e64f23de";
    "41f6f4c38351f606e2bc330fdb5d3d83";
    "a808bcd878d58f527923d170d6d4cc42";
    "772891435b00da3efc598dface85e19e";
    "bb2787c3fdb3b34681efa45cb22c3ec1";
  |]

let test_walk_digests () =
  List.iteri
    (fun idx (name, lines, k) ->
      Alcotest.(check string) name walk_digests_expected.(idx)
        (digest_walk lines ~k))
    walk_digest_cases

(* --- clustering ------------------------------------------------------- *)

let gen_cluster_input =
  QCheck.Gen.(
    let* lines = gen_lines in
    let n = Array.length lines in
    let* k = 1 -- max 1 (n / 3) in
    return (lines, min k (n - 1)))

let arb_cluster_input = QCheck.make gen_cluster_input

let prop_cluster_sizes =
  QCheck.Test.make ~count:300 ~name:"every cluster has <= 3k lines"
    arb_cluster_input (fun (lines, k) ->
      let c = Arrangement.Clustering.greedy ~lines ~k in
      Arrangement.Clustering.max_cluster_size c <= 3 * k)

let prop_cluster_count =
  QCheck.Test.make ~count:300 ~name:"at most N/k + 1 clusters (Lemma 3.2)"
    arb_cluster_input (fun (lines, k) ->
      let c = Arrangement.Clustering.greedy ~lines ~k in
      Arrangement.Clustering.size c <= (Array.length lines / k) + 1)

(* Lemma 3.1: if p is above fewer than k lines of its relevant cluster,
   then every line below p is in the cluster. *)
let prop_lemma_3_1 =
  QCheck.Test.make ~count:300 ~name:"Lemma 3.1 (cluster captures output)"
    (QCheck.make
       QCheck.Gen.(
         pair gen_cluster_input
           (list_size (1 -- 15)
              (pair (float_range (-30.) 30.) (float_range (-30.) 30.)))))
    (fun ((lines, k), queries) ->
      let c = Arrangement.Clustering.greedy ~lines ~k in
      List.for_all
        (fun (px, py) ->
          let p = Point2.make px py in
          let idx = Arrangement.Clustering.relevant c px in
          let cluster = c.Arrangement.Clustering.clusters.(idx) in
          let in_cluster = Hashtbl.create 16 in
          Array.iter
            (fun id -> Hashtbl.replace in_cluster id ())
            cluster.Arrangement.Clustering.lines;
          let below_in_cluster =
            Array.fold_left
              (fun acc id ->
                if Line2.below_point lines.(id) p then acc + 1 else acc)
              0 cluster.Arrangement.Clustering.lines
          in
          if below_in_cluster < k then begin
            (* every line of the whole set below p must be a member *)
            let ok = ref true in
            Array.iteri
              (fun id l ->
                if Line2.below_point l p && not (Hashtbl.mem in_cluster id)
                then ok := false)
              lines;
            !ok
          end
          else true)
        queries)

(* Corollary 3.3: the clusters containing any given line are contiguous. *)
let prop_corollary_3_3 =
  QCheck.Test.make ~count:300 ~name:"Corollary 3.3 (contiguous appearances)"
    arb_cluster_input (fun (lines, k) ->
      let c = Arrangement.Clustering.greedy ~lines ~k in
      let n = Array.length lines in
      let ok = ref true in
      for id = 0 to n - 1 do
        let appearances =
          Array.to_list
            (Array.mapi
               (fun i (cl : Arrangement.Clustering.cluster) ->
                 if Array.exists (fun x -> x = id) cl.lines then Some i
                 else None)
               c.Arrangement.Clustering.clusters)
          |> List.filter_map Fun.id
        in
        match appearances with
        | [] -> ()
        | first :: rest ->
            let expected = List.mapi (fun i _ -> first + i) (first :: rest) in
            if first :: rest <> expected then ok := false
      done;
      !ok)

(* Relevance partitions the x axis. *)
let prop_relevant_partition =
  QCheck.Test.make ~count:200 ~name:"exactly one relevant cluster per x"
    (QCheck.make
       QCheck.Gen.(pair gen_cluster_input (float_range (-100.) 100.)))
    (fun ((lines, k), x) ->
      let c = Arrangement.Clustering.greedy ~lines ~k in
      let idx = Arrangement.Clustering.relevant c x in
      let cl = c.Arrangement.Clustering.clusters.(idx) in
      cl.Arrangement.Clustering.left_x <= x
      && x < cl.Arrangement.Clustering.right_x
      || (cl.left_x = neg_infinity && x < cl.right_x)
      || (cl.right_x = infinity && cl.left_x <= x))

let test_cluster_small_example () =
  (* k=1 over five lines; the clustering must cover the whole axis. *)
  let lines =
    [| line 2. 0.; line 1. 1.; line 0. (-1.); line (-1.) 2.; line (-2.) (-3.) |]
  in
  let c = Arrangement.Clustering.greedy ~lines ~k:1 in
  Alcotest.(check bool) "at least one cluster" true
    (Arrangement.Clustering.size c >= 1);
  Alcotest.(check bool) "sizes within 3k" true
    (Arrangement.Clustering.max_cluster_size c <= 3);
  let union = Arrangement.Clustering.member_union c in
  Alcotest.(check bool) "union nonempty" true (union <> [])

let () =
  Alcotest.run "arrangement"
    [
      ( "level_walk",
        [
          Alcotest.test_case "triangle" `Quick test_level_triangle;
          Alcotest.test_case "0-level = lower envelope" `Quick
            test_level_zero_is_lower_envelope;
          Alcotest.test_case "parallel lines" `Quick test_level_parallel_lines;
          QCheck_alcotest.to_alcotest prop_level_walk_valid;
          QCheck_alcotest.to_alcotest prop_level_events_alternate_consistently;
          QCheck_alcotest.to_alcotest prop_below_after_has_k_lines;
          Alcotest.test_case "next_crossing tie-break" `Quick
            test_next_crossing_tie_break;
          Alcotest.test_case "digests pinned" `Quick test_walk_digests;
        ] );
      ( "clustering",
        [
          Alcotest.test_case "small example" `Quick test_cluster_small_example;
          QCheck_alcotest.to_alcotest prop_cluster_sizes;
          QCheck_alcotest.to_alcotest prop_cluster_count;
          QCheck_alcotest.to_alcotest prop_lemma_3_1;
          QCheck_alcotest.to_alcotest prop_corollary_3_3;
          QCheck_alcotest.to_alcotest prop_relevant_partition;
        ] );
    ]

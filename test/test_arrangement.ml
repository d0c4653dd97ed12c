(* Tests for the k-level walk (§2.3) and the greedy 3k-clustering
   (§3.1): Lemma 3.1, Lemma 3.2 and Corollary 3.3 invariants. *)

open Geom

let line s i = Line2.make ~slope:s ~icept:i

(* The walk and the clustering over a fresh tree of [lines]. *)
let walk ?on_event ~lines ~k () =
  Arrangement.Level_walk.walk ?on_event
    ~tree:(Arrangement.Level_walk.tree_of_lines lines)
    ~k ()

let greedy ~lines ~k =
  Arrangement.Clustering.greedy
    ~tree:(Arrangement.Level_walk.tree_of_lines lines)
    ~k

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
  let level = walk ~lines ~k:1 () in
  Alcotest.(check int) "complexity" 3
    (Arrangement.Level_walk.complexity level);
  Alcotest.(check (array int)) "edge lines" [| 2; 0; 1; 2 |] level.edge_lines;
  Alcotest.(check bool) "valid" true
    (Arrangement.Level_walk.check_level ~lines ~k:1 level)

let test_level_zero_is_lower_envelope () =
  let lines = [| line 1. 0.; line 0. 1.; line (-1.) 4. |] in
  let level = walk ~lines ~k:0 () in
  (* must follow the lower envelope: segments of lines 0, 1, 2 *)
  Alcotest.(check (array int)) "edges" [| 0; 1; 2 |] level.edge_lines;
  Alcotest.(check bool) "valid" true
    (Arrangement.Level_walk.check_level ~lines ~k:0 level)

let test_level_parallel_lines () =
  (* Parallel lines never cross: every level is a single full line. *)
  let lines = [| line 1. 0.; line 1. 1.; line 1. 2. |] in
  for k = 0 to 2 do
    let level = walk ~lines ~k () in
    Alcotest.(check int) "no vertices" 0
      (Arrangement.Level_walk.complexity level);
    Alcotest.(check int) "edge is the k-th lowest" k level.edge_lines.(0)
  done

let prop_level_walk_valid =
  QCheck.Test.make ~count:300 ~name:"level walk is exact (brute check)"
    arb_lines_and_k (fun (lines, k) ->
      let level = walk ~lines ~k () in
      Arrangement.Level_walk.check_level ~lines ~k level)

let prop_level_events_alternate_consistently =
  QCheck.Test.make ~count:200 ~name:"event stream matches level edges"
    arb_lines_and_k (fun (lines, k) ->
      let events = ref [] in
      let level =
        walk
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
        (walk
           ~on_event:(fun _ ~below_after ->
             if List.length (below_after ()) <> k then ok := false)
           ~lines ~k ());
      !ok)

(* Two lines cross the current edge line at exactly the same abscissa:
   line 0 (y = 2x) is the 0-level at x = -infinity, and lines 1 (y = 2)
   and 2 (y = x + 1) both meet it at (1, 2), in exact arithmetic.  The
   search keeps the lexicographic minimum of (x, id), so the lower id
   wins; line 3 (y = 2x + 5) is parallel to line 0 and is never
   crossed. *)
let test_next_crossing_tie_break () =
  let lines = [| line 2. 0.; line 0. 2.; line 1. 1.; line 2. 5. |] in
  let level = walk ~lines ~k:0 () in
  Alcotest.(check (array int)) "tie goes to the lower id" [| 0; 1 |]
    level.edge_lines;
  Alcotest.(check (float 0.)) "at the shared abscissa" 1.
    (Point2.x level.vertices.(0));
  for k = 0 to Array.length lines - 1 do
    ignore
      (walk
         ~on_event:(fun (ev : Arrangement.Level_walk.event) ~below_after:_ ->
           Alcotest.(check bool)
             (Printf.sprintf "k=%d: %d -> %d not parallel" k ev.incoming
                ev.outgoing)
             false
             (Line2.slope lines.(ev.incoming)
             = Line2.slope lines.(ev.outgoing)))
         ~lines ~k ())
  done;
  (* The same tie with the two lines in different cells of the search
     tree.  Line 0 (y = 100x - 100) is the 0-level at x = -infinity;
     line 1 (y = 0) and line 2 (y = 50x - 50) both meet it at (1, 0).
     Padding lines lie well above the level: 32 near line 1's dual
     point (0, 0), with positive slopes and intercepts, and 32 near
     line 2's dual point (50, -50); all cross line 0 beyond x = 1.
     The search finds line 2 first, in a cell whose bound is below 1;
     line 1's cell has bound exactly 1 = best_x, and must still be
     searched. *)
  let pad j ~s ~c =
    line (s +. float (j * 13 mod 31)) (c +. float (j * 7 mod 29))
  in
  let lines =
    Array.concat
      [
        [| line 100. (-100.); line 0. 0.; line 50. (-50.) |];
        Array.init 32 (fun j -> pad j ~s:1. ~c:1.);
        Array.init 32 (fun j -> pad j ~s:45. ~c:(-35.));
      ]
  in
  let level = walk ~lines ~k:0 () in
  Alcotest.(check (array int)) "cross-cell tie goes to the lower id" [| 0; 1 |]
    level.edge_lines;
  Alcotest.(check (float 0.)) "across cells, at the shared abscissa" 1.
    (Point2.x level.vertices.(0));
  Alcotest.(check bool) "padded level valid" true
    (Arrangement.Level_walk.check_level ~lines ~k:0 level)

(* The walk is a build kernel of h2: its edge lines, vertices and event
   stream flow into snapshot bytes.  The first thirteen digests were
   recorded from the record-scanning implementation, the rest from the
   flat linear scan that followed it; they cover near-concurrent
   lines, equal-slope classes, sizes around a 16-line leaf, slope gaps
   whose crossings are huge or overflow, and k = n - 1.  Every
   next-crossing search must reproduce them bit for bit. *)

let digest_walk lines ~k =
  let b = Buffer.create 4096 in
  let bits v = Int64.bits_of_float v in
  let point p =
    Printf.bprintf b " %Lx %Lx" (bits (Point2.x p)) (bits (Point2.y p))
  in
  let level =
    walk
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

(* [n] <= 55 distinct lines on a 5 x 11 integer grid (by the Chinese
   remainder theorem): exactly [n] lines, with parallel families and
   lines meeting at common points. *)
let grid_lines n =
  Array.init n (fun j ->
      line (float ((j mod 5) - 2)) (float ((j * 7 mod 11) - 5)))

(* Duals of points within 0.01 of the line y = x / 2 + 1: every dual
   line passes within 0.01 of the dual point (1/2, 1), so the
   arrangement is nearly concurrent there (the diagonal workload's
   shape). *)
let near_concurrent_lines seed n =
  let rng = Random.State.make [| seed |] in
  distinct
    (List.init n (fun _ ->
         let px = Random.State.float rng 20. -. 10. in
         let py =
           (0.5 *. px) +. 1. +. (Random.State.float rng 0.02 -. 0.01)
         in
         Dual2.line_of_point (Point2.make px py)))

(* [groups] slope values, each shared by [per] lines with random
   intercepts: every slope class spreads over the intercept range. *)
let equal_slope_lines seed ~groups ~per =
  let rng = Random.State.make [| seed |] in
  distinct
    (List.init (groups * per) (fun j ->
         line
           (float (j mod groups) -. (float groups /. 2.))
           (Random.State.float rng 20. -. 10.)))

(* Random lines plus three families whose slopes differ by about
   1e-12 (at the steepest, the flattest and the middle slopes, so the
   extreme levels cross within a family near +-1e13), and a few lines
   whose slopes differ by a subnormal, whose crossings overflow to
   +-infinity. *)
let tiny_gap_lines seed n =
  let rng = Random.State.make [| seed |] in
  let base = random_lines seed n |> Array.to_list in
  let fam =
    List.init 24 (fun j ->
        let s0 = 12. *. float ((j mod 3) - 1) in
        line
          (s0 +. (float (j / 3) *. 1e-12))
          (Random.State.float rng 20. -. 10.))
  in
  let sub =
    List.init 6 (fun j ->
        line
          (float j *. 4.9e-324)
          (float (j + 1) *. if j mod 2 = 0 then 1. else -1.))
  in
  distinct (base @ fam @ sub)

(* name, lines, k *)
let walk_digest_cases =
  let r = random_lines and i = integer_lines in
  let nc = near_concurrent_lines and tg = tiny_gap_lines in
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
    ("near-concurrent 300, k=0", nc 11 300, 0);
    ("near-concurrent 300, k=40", nc 12 300, 40);
    ("near-concurrent 300, k=150", nc 13 300, 150);
    ("near-concurrent 300, k=n-1", nc 14 300, 299);
    ("equal slopes 8x40, k=0", equal_slope_lines 15 ~groups:8 ~per:40, 0);
    ("equal slopes 8x40, k=60", equal_slope_lines 16 ~groups:8 ~per:40, 60);
    ("equal slopes 5x50, k=n-1", equal_slope_lines 17 ~groups:5 ~per:50, 249);
    ("random 15, k=7", r 18 15, 7);
    ("random 16, k=8", r 19 16, 8);
    ("random 17, k=3", r 20 17, 3);
    ("grid 16, k=5", grid_lines 16, 5);
    ("grid 17, k=16", grid_lines 17, 16);
    ("random 257, k=128", r 23 257, 128);
    ("random 1000, k=40", r 24 1000, 40);
    ("tiny gaps 200, k=0", tg 25 200, 0);
    ("tiny gaps 200, k=3", tg 26 200, 3);
    ("tiny gaps 200, k=115", tg 27 200, 115);
    ("tiny gaps 200, k=n-4", tg 28 200, 226);
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
    "6e544f509a9e663cfa872c44c2eb134d";
    "9b95a1292a20dc82d7d449283b77413b";
    "da008f8a0997aad402caa70873a0bdde";
    "5e0721504d752ecf156aa90504d3755a";
    "9186aabff17002d42c2f15b36c70f7b6";
    "bc2d42323b7c6eb55fffd47f6923cea6";
    "1c61a58722b371c4c733cf79864481c0";
    "0e16eb5b12958db61d9321b50a191ac5";
    "25e8331517ad02f6580927313a19d545";
    "da91ce8f02f105fb153cc5ea8e7c8d24";
    "74d9312d792546252aac2289025ff10a";
    "b3ce5c2b8d0c86aa613095ac188fcd84";
    "442bb93dfcc638236789f2ed38851e0b";
    "d9b9b7fbf6d605a40ec681b1a9e3af6e";
    "a5b3728681e4a6eb586f10d2a2945a21";
    "00dcd465b0c14868dbc59f2f09b9c2fa";
    "5c3055726ae2c3e480868ce6b3085a68";
    "d30ac7ca6b78aec7679d2966c81b97e5";
  |]

let test_walk_digests () =
  Alcotest.(check int)
    "one digest per case"
    (Array.length walk_digests_expected)
    (List.length walk_digest_cases);
  List.iteri
    (fun idx (name, lines, k) ->
      Alcotest.(check string) name walk_digests_expected.(idx)
        (digest_walk lines ~k))
    walk_digest_cases

(* The oracle for the differential property: the walk as it was over
   the exact linear scan, one pass over every line per vertex, with
   the lowest id winning a tie by the strict [<].  It returns the
   event stream (kind, incoming, outgoing, vertex bits, sorted L^-
   after the vertex) and the edge lines. *)
let reference_walk ~lines ~k =
  let n = Array.length lines in
  let order = Array.init n Fun.id in
  Array.sort
    (fun i j ->
      let c = Float.compare (Line2.slope lines.(j)) (Line2.slope lines.(i)) in
      if c <> 0 then c
      else Float.compare (Line2.icept lines.(i)) (Line2.icept lines.(j)))
    order;
  let minus = Array.make n false in
  for i = 0 to k - 1 do
    minus.(order.(i)) <- true
  done;
  let slope m = Line2.slope lines.(m) and icept m = Line2.icept lines.(m) in
  let rec go current after events edges =
    let s0 = slope current and c0 = icept current in
    let best_x = ref infinity and best = ref (-1) in
    for m = 0 to n - 1 do
      if m <> current && slope m <> s0 then begin
        let x = (icept m -. c0) /. (s0 -. slope m) in
        if x > after && x < !best_x then begin
          best_x := x;
          best := m
        end
      end
    done;
    if !best < 0 then (List.rev events, List.rev edges)
    else begin
      let g = !best and vx = !best_x in
      let kind =
        if minus.(g) then begin
          minus.(g) <- false;
          minus.(current) <- true;
          Arrangement.Level_walk.Convex
        end
        else Arrangement.Level_walk.Concave
      in
      let below = List.filter (fun m -> minus.(m)) (List.init n Fun.id) in
      let vy = Line2.eval lines.(current) vx in
      let bits = Int64.bits_of_float in
      let ev = (kind, current, g, bits vx, bits vy, below) in
      go g vx (ev :: events) (g :: edges)
    end
  in
  go order.(k) neg_infinity [] [ order.(k) ]

(* Random, integer-grid and parallel-family arrangements, up to 120
   lines: several tree leaves, exact ties and parallel classes. *)
let arb_differential =
  QCheck.make
    ~print:(fun (family, seed, n, k) ->
      Printf.sprintf "family=%d seed=%d n=%d k=%d" family seed n k)
    QCheck.Gen.(quad (0 -- 2) (0 -- 100_000) (3 -- 120) (0 -- 1_000))

let differential_lines (family, seed, n, k) =
  let lines =
    match family with
    | 0 -> random_lines seed n
    | 1 -> integer_lines seed n
    | _ -> equal_slope_lines seed ~groups:(1 + (seed mod 6)) ~per:(1 + (n / 6))
  in
  (lines, k mod Array.length lines)

(* Does the walk over [tree] reproduce the reference walk over [lines]
   (the tree's lines, in id order): event stream, vertex bits and
   edge lines? *)
let matches_reference ~tree ~lines ~k =
  let events = ref [] in
  let level =
    Arrangement.Level_walk.walk ~tree ~k
      ~on_event:(fun (ev : Arrangement.Level_walk.event) ~below_after ->
        events :=
          ( ev.kind,
            ev.incoming,
            ev.outgoing,
            Int64.bits_of_float (Point2.x ev.vertex),
            Int64.bits_of_float (Point2.y ev.vertex),
            List.sort Int.compare (below_after ()) )
          :: !events)
      ()
  in
  let ref_events, ref_edges = reference_walk ~lines ~k in
  List.rev !events = ref_events
  && Array.to_list level.edge_lines = ref_edges
  && List.for_all2
       (fun v (_, _, _, bx, by, _) ->
         Int64.bits_of_float (Point2.x v) = bx
         && Int64.bits_of_float (Point2.y v) = by)
       (Array.to_list level.vertices)
       ref_events

let prop_walk_matches_linear_scan =
  QCheck.Test.make ~count:300 ~name:"walk = linear-scan reference walk"
    arb_differential (fun case ->
      let lines, k = differential_lines case in
      matches_reference
        ~tree:(Arrangement.Level_walk.tree_of_lines lines)
        ~lines ~k)

(* One tree through several rounds of peeling, as an h2 build uses it:
   after each round the walk over the compacted tree must equal the
   reference walk over the surviving lines, renumbered in order.  The
   rounds go down to one or two live lines; the families add parallel
   classes and nearly concurrent duals to the random and integer
   ones. *)
let arb_peels =
  QCheck.make
    ~print:(fun (family, seed, n) ->
      Printf.sprintf "family=%d seed=%d n=%d" family seed n)
    QCheck.Gen.(triple (0 -- 4) (0 -- 100_000) (2 -- 150))

let prop_compacted_walk_matches_linear_scan =
  QCheck.Test.make ~count:150 ~name:"walks over a compacted tree = reference"
    arb_peels (fun (family, seed, n) ->
      let lines =
        match family with
        | 0 -> random_lines seed n
        | 1 -> integer_lines seed n
        | 2 ->
            equal_slope_lines seed
              ~groups:(1 + (seed mod 5))
              ~per:(1 + (n / 5))
        | 3 -> near_concurrent_lines seed n
        | _ -> Array.init n (fun j -> line (float (j mod 3)) (float (j / 3)))
      in
      let rng = Random.State.make [| seed; n |] in
      let tree = Arrangement.Level_walk.tree_of_lines lines in
      let live = ref lines and ok = ref true in
      while !ok && Array.length !live > 0 do
        let lines = !live in
        let m = Array.length lines in
        let k = Random.State.int rng m in
        if not (matches_reference ~tree ~lines ~k) then ok := false;
        (* peel a random share, at least one line, down to nothing *)
        let share = Random.State.float rng 0.6 in
        let peeled =
          Array.init m (fun _ -> Random.State.float rng 1. < share)
        in
        peeled.(Random.State.int rng m) <- true;
        live :=
          Array.of_list
            (List.filteri (fun i _ -> not peeled.(i)) (Array.to_list lines));
        if !live <> [||] then begin
          Arrangement.Level_walk.compact tree ~peeled;
          if Arrangement.Level_walk.size tree <> Array.length !live then
            ok := false
        end
      done;
      !ok)

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
      let c = greedy ~lines ~k in
      Arrangement.Clustering.max_cluster_size c <= 3 * k)

let prop_cluster_count =
  QCheck.Test.make ~count:300 ~name:"at most N/k + 1 clusters (Lemma 3.2)"
    arb_cluster_input (fun (lines, k) ->
      let c = greedy ~lines ~k in
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
      let c = greedy ~lines ~k in
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
      let c = greedy ~lines ~k in
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
      let c = greedy ~lines ~k in
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
  let c = greedy ~lines ~k:1 in
  Alcotest.(check bool) "at least one cluster" true
    (Arrangement.Clustering.size c >= 1);
  Alcotest.(check bool) "sizes within 3k" true
    (Arrangement.Clustering.max_cluster_size c <= 3);
  Alcotest.(check bool) "some cluster has lines" true
    (Array.exists
       (fun cl -> Array.length cl.Arrangement.Clustering.lines > 0)
       c.Arrangement.Clustering.clusters)

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
          QCheck_alcotest.to_alcotest prop_walk_matches_linear_scan;
          QCheck_alcotest.to_alcotest prop_compacted_walk_matches_linear_scan;
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

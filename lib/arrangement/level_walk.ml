open Geom

type vertex_kind = Convex | Concave

type event = {
  vertex : Point2.t;
  kind : vertex_kind;
  incoming : int;
  outgoing : int;
}

type level = { edge_lines : int array; vertices : Point2.t array }

(* The walk crosses, at each vertex, the line whose intersection with
   the current edge line has the smallest abscissa strictly beyond the
   current position (DESIGN.md substitution 2).  Every line of the
   arrangement either crosses the current line ahead (a candidate) or
   behind (excluded by the [> after] test), so the exact minimum over
   all lines is the next vertex.  Line m meets the current line
   (s0, c0) at x = (c_m -. c0) /. (s0 -. s_m); the winner is the
   lexicographic minimum of (x, m) over the lines with x > after, and
   x = +infinity never wins.

   The minimum is found by branch-and-bound over a static 2-d tree of
   the dual points (s_m, c_m), built once per walk.  On either side of
   s0 the sign of den = s0 -. s_m is fixed, and there fl(c_m -. c0),
   fl(s0 -. s_m) and fl(num /. den) are monotone in each argument,
   because IEEE rounding is monotone.  So the quotients at a node's
   box corners, computed with the same operations as the leaves,
   bound every x in the node exactly: no epsilon.  A node that
   straddles s0 is bounded the same way when its intercepts all lie
   above (or all below) c0: its crossings on one side of s0 are then
   negative and on the other positive.  A node is skipped when its
   crossings are all <= after or its lower bound is > best_x (never on
   equality: a tied line with a lower id may lie inside).  Leaves
   evaluate x exactly as a linear scan would.  A NaN bound compares
   false both ways and so never prunes.  The digests in
   test/test_arrangement.ml pin the walk's output bit for bit. *)

let leaf_size = 16

(* Heap layout: node [j] has children [2j + 1] and [2j + 2] and covers
   a range [lo, hi) of the leaf order, halved at [(lo + hi) / 2]; it is
   a leaf when the range holds at most [leaf_size] lines.  [ids], [ps]
   and [pc] hold the lines' ids, slopes and intercepts in leaf order;
   [box.(4j) .. box.(4j + 3)] is node [j]'s slope range [sl, sh] and
   intercept range [cl, ch]. *)
type tree = {
  ids : int array;
  ps : float array;
  pc : float array;
  box : float array;
}

(* Rearranges [perm.(lo .. hi)] (inclusive) so that [perm.(k)] holds
   the element of rank [k - lo] by [key], with no larger key before it
   and no smaller one after (Hoare's selection). *)
let select key perm lo hi k =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let pivot = key.(perm.(k)) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while key.(perm.(!i)) < pivot do
        incr i
      done;
      while pivot < key.(perm.(!j)) do
        decr j
      done;
      if !i <= !j then begin
        let t = perm.(!i) in
        perm.(!i) <- perm.(!j);
        perm.(!j) <- t;
        incr i;
        decr j
      end
    done;
    if !j < k then lo := !i;
    if k < !i then hi := !j
  done

(* O(m log m): every level of the tree boxes its nodes and splits each
   at the median of the wider of its two extents. *)
let build_tree slopes icepts =
  let n = Array.length slopes in
  let rec depth m = if m <= leaf_size then 0 else 1 + depth (m - (m / 2)) in
  let box = Array.make (4 * ((2 lsl depth n) - 1)) 0. in
  let perm = Array.init n Fun.id in
  let rec node j lo hi =
    let sl = ref infinity and sh = ref neg_infinity in
    let cl = ref infinity and ch = ref neg_infinity in
    for i = lo to hi - 1 do
      let s = slopes.(perm.(i)) and c = icepts.(perm.(i)) in
      if s < !sl then sl := s;
      if s > !sh then sh := s;
      if c < !cl then cl := c;
      if c > !ch then ch := c
    done;
    box.(4 * j) <- !sl;
    box.((4 * j) + 1) <- !sh;
    box.((4 * j) + 2) <- !cl;
    box.((4 * j) + 3) <- !ch;
    if hi - lo > leaf_size then begin
      let mid = (lo + hi) / 2 in
      let key = if !sh -. !sl >= !ch -. !cl then slopes else icepts in
      select key perm lo (hi - 1) mid;
      node ((2 * j) + 1) lo mid;
      node ((2 * j) + 2) mid hi
    end
  in
  node 0 0 n;
  {
    ids = perm;
    ps = Array.map (fun m -> slopes.(m)) perm;
    pc = Array.map (fun m -> icepts.(m)) perm;
    box;
  }

(* The search state: the current line (s0, c0), the current abscissa
   [after], and the best crossing found so far. *)
type cursor = {
  mutable s0 : float;
  mutable c0 : float;
  mutable after : float;
  mutable best_x : float;
  mutable best : int;
}

(* A lower bound on the crossings beyond [after] in node [j]:
   [infinity] when it holds none (all crossings <= after, or all lines
   parallel to the current one), [neg_infinity] when the node has no
   bound (it straddles s0 and its intercepts straddle c0). *)
let[@inline] lower_bound box cur j =
  let s0 = cur.s0 and sl = box.(4 * j) and sh = box.((4 * j) + 1) in
  let nl = box.((4 * j) + 2) -. cur.c0 and nh = box.((4 * j) + 3) -. cur.c0 in
  let dl = s0 -. sh and dh = s0 -. sl in
  if sh < s0 then
    (* den > 0: x rises with num, and falls with den iff num >= 0 *)
    let ub = if nh >= 0. then nh /. dl else nh /. dh in
    if ub <= cur.after then infinity
    else if nl >= 0. then nl /. dh
    else nl /. dl
  else if sl > s0 then
    (* den < 0: x falls with num, and rises with den iff num >= 0 *)
    let ub = if nl >= 0. then nl /. dl else nl /. dh in
    if ub <= cur.after then infinity
    else if nh >= 0. then nh /. dh
    else nh /. dl
  else if sl = sh then infinity
  else if nl > 0. then
    (* straddles s0 above c0: x > 0 left of s0, at least nl /. dh;
       x < 0 right of s0, at most nl /. dl *)
    if nl /. dl <= cur.after then nl /. dh else neg_infinity
  else if nh < 0. then
    (* straddles s0 below c0: x < 0 left of s0, at most nh /. dh;
       x > 0 right of s0, at least nh /. dl *)
    if nh /. dh <= cur.after then nh /. dl else neg_infinity
  else neg_infinity

(* May a node with lower bound [k] still hold the winner?  Not when
   [k > best_x]: a tie at [k = best_x] may have a lower id.  A NaN
   bound is live. *)
let[@inline] live cur k = not (k > cur.best_x || k = infinity)

let rec visit t cur j lo hi =
  if hi - lo <= leaf_size then begin
    let s0 = cur.s0 and c0 = cur.c0 and after = cur.after in
    for i = lo to hi - 1 do
      let sm = t.ps.(i) in
      if sm <> s0 then begin
        let x = (t.pc.(i) -. c0) /. (s0 -. sm) in
        if
          x > after
          && (x < cur.best_x || (x = cur.best_x && t.ids.(i) < cur.best))
        then begin
          cur.best_x <- x;
          cur.best <- t.ids.(i)
        end
      end
    done
  end
  else begin
    (* the child with the smaller bound first; each bound is tested
       against best_x when its child's turn comes *)
    let l = (2 * j) + 1 and mid = (lo + hi) / 2 in
    let kl = lower_bound t.box cur l and kr = lower_bound t.box cur (l + 1) in
    if kr < kl then begin
      if live cur kr then visit t cur (l + 1) mid hi;
      if live cur kl then visit t cur l lo mid
    end
    else begin
      if live cur kl then visit t cur l lo mid;
      if live cur kr then visit t cur (l + 1) mid hi
    end
  end

(* The crossing of the current line (cur.s0, cur.c0) nearest beyond
   cur.after: moves cur.after to it and returns the crossing line's
   id, or returns -1 when no line crosses ahead. *)
let next_crossing t cur =
  cur.best_x <- infinity;
  cur.best <- -1;
  visit t cur 0 0 (Array.length t.ids);
  if cur.best >= 0 then cur.after <- cur.best_x;
  cur.best

let walk ?(on_event = fun _ ~below_after:_ -> ()) ~lines ~k () =
  let n = Array.length lines in
  if k < 0 || k >= n then invalid_arg "Level_walk.walk: need 0 <= k < n";
  (* Order at x = -infinity: larger slope is lower; break slope ties by
     intercept (lower intercept is lower everywhere). *)
  let order = Array.init n Fun.id in
  Array.sort
    (fun i j ->
      let c = Float.compare (Line2.slope lines.(j)) (Line2.slope lines.(i)) in
      if c <> 0 then c
      else Float.compare (Line2.icept lines.(i)) (Line2.icept lines.(j)))
    order;
  (* L^-: ids of the k lines strictly below the current edge. *)
  let minus = Hashtbl.create (2 * (k + 1)) in
  for i = 0 to k - 1 do
    Hashtbl.replace minus order.(i) ()
  done;
  let current = ref order.(k) in
  let edge_lines = Vec.create () and vertices = Vec.create () in
  Vec.push edge_lines !current;
  let slopes = Array.map Line2.slope lines
  and icepts = Array.map Line2.icept lines in
  let tree = build_tree slopes icepts in
  let cur =
    { s0 = 0.; c0 = 0.; after = neg_infinity; best_x = infinity; best = -1 }
  in
  let finished = ref false in
  while not !finished do
    cur.s0 <- slopes.(!current);
    cur.c0 <- icepts.(!current);
    match next_crossing tree cur with
    | -1 -> finished := true
    | g ->
        let vx = cur.after in
        let incoming = !current in
        let vertex = Point2.make vx (Line2.eval lines.(incoming) vx) in
        let kind =
          if Hashtbl.mem minus g then begin
            (* g rises through the level: the incoming line dives below
               it, so the vertex is convex (a ∨) *)
            Hashtbl.remove minus g;
            Hashtbl.replace minus incoming ();
            Convex
          end
          else Concave
        in
        current := g;
        Vec.push vertices vertex;
        Vec.push edge_lines g;
        let below_after () =
          Hashtbl.fold (fun id () acc -> id :: acc) minus []
        in
        on_event { vertex; kind; incoming; outgoing = g } ~below_after
  done;
  { edge_lines = Vec.to_array edge_lines; vertices = Vec.to_array vertices }

let complexity level = Array.length level.vertices

let check_level ~lines ~k level =
  let n_edges = Array.length level.edge_lines in
  let n_vertices = Array.length level.vertices in
  if n_edges <> n_vertices + 1 then false
  else begin
    let ok = ref true in
    (* vertices strictly increase in x and lie on both incident lines *)
    for i = 0 to n_vertices - 1 do
      let v = level.vertices.(i) in
      if i > 0 && Point2.x level.vertices.(i - 1) >= Point2.x v then
        ok := false;
      let a = lines.(level.edge_lines.(i))
      and b = lines.(level.edge_lines.(i + 1)) in
      if not (Line2.through_point a v && Line2.through_point b v) then
        ok := false
    done;
    (* sample a point in the interior of each edge and count lines
       strictly below it *)
    let sample i =
      let lo =
        if i = 0 then
          if n_vertices = 0 then 0. else Point2.x level.vertices.(0) -. 10.
        else Point2.x level.vertices.(i - 1)
      and hi =
        if i = n_vertices then
          if n_vertices = 0 then 1.
          else Point2.x level.vertices.(n_vertices - 1) +. 10.
        else Point2.x level.vertices.(i)
      in
      (lo +. hi) /. 2.
    in
    for i = 0 to n_edges - 1 do
      let sx = sample i in
      let p = Point2.make sx (Line2.eval lines.(level.edge_lines.(i)) sx) in
      let below =
        Array.fold_left
          (fun acc l -> if Line2.below_point l p then acc + 1 else acc)
          0 lines
      in
      if below <> k then ok := false
    done;
    !ok
  end

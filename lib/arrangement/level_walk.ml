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

   The minimum is found by branch-and-bound over a 2-d tree of the
   dual points (s_m, c_m).  On either side of
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
   false both ways and so never prunes.  Nothing here depends on how
   the lines are split into nodes: every line lies in exactly one leaf
   range and every box holds its node's lines, so any tree finds the
   same winner.  That is what lets one tree serve a whole h2 build,
   compacted between layers (see [compact]).  The digests in
   test/test_arrangement.ml pin the walk's output bit for bit. *)

let leaf_size = 16

(* Heap layout: node [j] covers the range [lo.(j), hi.(j)) of the leaf
   order; when [split.(j)] its children [2j + 1] and [2j + 2] cover the
   two halves of that range, split at the median of the wider of the
   node's two extents when the tree was built.  A node holding at most
   [leaf_size] lines is searched as a leaf whether or not it was split.
   [ids], [ps] and [pc] hold the lines' ids, slopes and intercepts in
   leaf order, [slope] and [icept] the same by id;
   [box.(4j) .. box.(4j + 3)] is node [j]'s slope range [sl, sh] and
   intercept range [cl, ch].  Only the first [size] entries of the
   line arrays are live. *)
type tree = {
  mutable size : int;
  slope : float array;
  icept : float array;
  ids : int array;
  ps : float array;
  pc : float array;
  lo : int array;
  hi : int array;
  split : bool array;
  box : float array;
}

let size t = t.size
let slope t id = t.slope.(id)
let icept t id = t.icept.(id)

(* Rearranges [perm.(lo .. hi)] (inclusive) so that [perm.(k)] holds
   the element of rank [k - lo] under the strict order [lt], with no
   larger element before it and no smaller one after (Hoare's
   selection). *)
let select lt perm lo hi k =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let pivot = perm.(k) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while lt perm.(!i) pivot do
        incr i
      done;
      while lt pivot perm.(!j) do
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

(* Node [j]'s exact box, from its own lines. *)
let fit t j =
  let sl = ref infinity and sh = ref neg_infinity in
  let cl = ref infinity and ch = ref neg_infinity in
  for i = t.lo.(j) to t.hi.(j) - 1 do
    let s = t.slope.(t.ids.(i)) and c = t.icept.(t.ids.(i)) in
    if s < !sl then sl := s;
    if s > !sh then sh := s;
    if c < !cl then cl := c;
    if c > !ch then ch := c
  done;
  t.box.(4 * j) <- !sl;
  t.box.((4 * j) + 1) <- !sh;
  t.box.((4 * j) + 2) <- !cl;
  t.box.((4 * j) + 3) <- !ch

(* O(m log m): every level of the tree boxes its nodes and splits each
   at the median of the wider of its two extents. *)
let tree_of_lines lines =
  let n = Array.length lines in
  let rec depth m = if m <= leaf_size then 0 else 1 + depth (m - (m / 2)) in
  let nodes = (2 lsl depth n) - 1 in
  let slope = Array.map Line2.slope lines
  and icept = Array.map Line2.icept lines in
  let t =
    {
      size = n;
      slope;
      icept;
      ids = Array.init n Fun.id;
      (* the leaf-order copies are made once the order is final *)
      ps = [||];
      pc = [||];
      lo = Array.make nodes 0;
      hi = Array.make nodes 0;
      split = Array.make nodes false;
      box = Array.make (4 * nodes) 0.;
    }
  in
  let rec node j lo hi =
    t.lo.(j) <- lo;
    t.hi.(j) <- hi;
    fit t j;
    if hi - lo > leaf_size then begin
      t.split.(j) <- true;
      let mid = (lo + hi) / 2 in
      let b = 4 * j in
      let key =
        if t.box.(b + 1) -. t.box.(b) >= t.box.(b + 3) -. t.box.(b + 2) then
          slope
        else icept
      in
      select (fun u v -> key.(u) < key.(v)) t.ids lo (hi - 1) mid;
      node ((2 * j) + 1) lo mid;
      node ((2 * j) + 2) mid hi
    end
  in
  node 0 0 n;
  {
    t with
    ps = Array.map (fun m -> slope.(m)) t.ids;
    pc = Array.map (fun m -> icept.(m)) t.ids;
  }

(* O(m): the survivors keep their leaf order and their nodes, so every
   node's lines are a subset of its lines before; node ranges shrink
   through [before], and boxes are refitted bottom-up, each exact. *)
let compact t ~peeled =
  let n = t.size in
  let rank = Array.make n 0 and r = ref 0 in
  for id = 0 to n - 1 do
    if not peeled.(id) then begin
      rank.(id) <- !r;
      t.slope.(!r) <- t.slope.(id);
      t.icept.(!r) <- t.icept.(id);
      incr r
    end
  done;
  (* before.(i): survivors at leaf positions < i *)
  let before = Array.make (n + 1) 0 and w = ref 0 in
  for i = 0 to n - 1 do
    before.(i) <- !w;
    let id = t.ids.(i) in
    if not peeled.(id) then begin
      t.ids.(!w) <- rank.(id);
      t.ps.(!w) <- t.ps.(i);
      t.pc.(!w) <- t.pc.(i);
      incr w
    end
  done;
  before.(n) <- !w;
  t.size <- !w;
  let rec refit j =
    t.lo.(j) <- before.(t.lo.(j));
    t.hi.(j) <- before.(t.hi.(j));
    if t.split.(j) && t.hi.(j) - t.lo.(j) > leaf_size then begin
      let l = (2 * j) + 1 in
      refit l;
      refit (l + 1);
      let b = t.box and bj = 4 * j and bl = 4 * l in
      b.(bj) <- Float.min b.(bl) b.(bl + 4);
      b.(bj + 1) <- Float.max b.(bl + 1) b.(bl + 5);
      b.(bj + 2) <- Float.min b.(bl + 2) b.(bl + 6);
      b.(bj + 3) <- Float.max b.(bl + 3) b.(bl + 7)
    end
    else fit t j
  in
  refit 0

let left_order t k =
  let sl = t.slope and ic = t.icept in
  let order = Array.init t.size Fun.id in
  select
    (fun i j -> sl.(i) > sl.(j) || (sl.(i) = sl.(j) && ic.(i) < ic.(j)))
    order 0 (t.size - 1) k;
  order

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

let rec visit t cur j =
  let lo = t.lo.(j) and hi = t.hi.(j) in
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
    let l = (2 * j) + 1 in
    let kl = lower_bound t.box cur l and kr = lower_bound t.box cur (l + 1) in
    if kr < kl then begin
      if live cur kr then visit t cur (l + 1);
      if live cur kl then visit t cur l
    end
    else begin
      if live cur kl then visit t cur l;
      if live cur kr then visit t cur (l + 1)
    end
  end

(* The crossing of the current line (cur.s0, cur.c0) nearest beyond
   cur.after: moves cur.after to it and returns the crossing line's
   id, or returns -1 when no line crosses ahead. *)
let next_crossing t cur =
  cur.best_x <- infinity;
  cur.best <- -1;
  visit t cur 0;
  if cur.best >= 0 then cur.after <- cur.best_x;
  cur.best

let walk ?(on_event = fun _ ~below_after:_ -> ()) ~tree ~k () =
  let n = tree.size in
  if k < 0 || k >= n then invalid_arg "Level_walk.walk: need 0 <= k < n";
  let slopes = tree.slope and icepts = tree.icept in
  (* at x = -infinity: order.(k) is the rank-k line, the k lines
     before it are L^-, the lines strictly below the current edge *)
  let order = left_order tree k in
  (* L^- as flags by id, and as the list [members] with each member's
     slot in it: a convex vertex swaps one member for another *)
  let below = Array.make n false in
  let members = Array.sub order 0 k and slot = Array.make n 0 in
  Array.iteri
    (fun i id ->
      below.(id) <- true;
      slot.(id) <- i)
    members;
  let current = ref order.(k) in
  let edge_lines = Vec.create () and vertices = Vec.create () in
  Vec.push edge_lines !current;
  let cur =
    { s0 = 0.; c0 = 0.; after = neg_infinity; best_x = infinity; best = -1 }
  in
  let below_after () = Array.to_list members in
  let finished = ref false in
  while not !finished do
    cur.s0 <- slopes.(!current);
    cur.c0 <- icepts.(!current);
    match next_crossing tree cur with
    | -1 -> finished := true
    | g ->
        let vx = cur.after in
        let incoming = !current in
        let vertex =
          Point2.make vx ((slopes.(incoming) *. vx) +. icepts.(incoming))
        in
        let kind =
          if below.(g) then begin
            (* g rises through the level: the incoming line dives below
               it, so the vertex is convex (a ∨) *)
            below.(g) <- false;
            below.(incoming) <- true;
            members.(slot.(g)) <- incoming;
            slot.(incoming) <- slot.(g);
            Convex
          end
          else Concave
        in
        current := g;
        Vec.push vertices vertex;
        Vec.push edge_lines g;
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

open Geom
open Partition

(* A stored segment: endpoints ordered lexicographically, plus the dual
   point of its supporting line. *)
type seg = {
  sid : int;
  p1 : Point2.t;
  p2 : Point2.t;
  dual : Cells.point; (* (slope, icept) of the supporting line *)
}

(* Level 3: a partition tree over the dual points of supporting lines,
   answering double-wedge (two-constraint simplex) queries.  Reported
   candidates are verified against the exact intersection predicate
   (collinear/touching cases) using the in-memory segment table. *)
type level3 = { tree : Partition_tree.t; segs3 : seg array }

(* Levels 1 and 2 share one node shape: a kd split of segments by an
   endpoint, where every node carries the next level's structure over
   its whole canonical subset. *)
type node = {
  cell : Cells.cell;
  next_level : next;
  children : node array; (* empty at leaves *)
  cells_block : int; (* children's cells, on disk: descents pay for it *)
  leaf : seg Emio.Run.t option; (* segments, at leaves only *)
}

and next = L2 of node | L3 of level3 | L_none (* leaves: the run itself answers *)

type t = {
  root : node option; (* level-1 root (splitting by p1) *)
  verticals : seg Emio.Run.t;
  cell_store : Cells.cell Emio.Store.t;
}

let rec node_space n =
  (match n.leaf with Some run -> Emio.Run.block_count run | None -> 0)
  + (match n.next_level with
    | L2 m -> node_space m
    | L3 l3 -> Partition_tree.space_blocks l3.tree
    | L_none -> 0)
  + Array.fold_left (fun acc c -> acc + node_space c) 0 n.children
  + if Array.length n.children > 0 then 1 else 0

let space_blocks t =
  Emio.Run.block_count t.verticals
  + match t.root with None -> 0 | Some r -> node_space r

let coords (p : Point2.t) = [| Point2.x p; Point2.y p |]

let build_level3 ~stats ~block_size segs =
  let duals = Array.map (fun s -> s.dual) segs in
  {
    tree = Partition_tree.build ~stats ~block_size ~dim:2 duals;
    segs3 = segs;
  }

(* Build a level (1 or 2): kd-split on the selected endpoint; every
   node carries the next level over its subtree. *)
let rec build_level ~stats ~block_size ~store ~cell_store ~level segs =
  let key = if level = 1 then fun s -> s.p1 else fun s -> s.p2 in
  let next_of subset =
    if level = 1 then
      L2 (build_level ~stats ~block_size ~store ~cell_store ~level:2 subset)
    else L3 (build_level3 ~stats ~block_size subset)
  in
  let points = Array.map (fun s -> coords (key s)) segs in
  let nv = Array.length segs in
  if nv <= block_size then
    (* a leaf answers by scanning its one block: no secondary levels *)
    {
      cell = Cells.bounding_box points;
      next_level = L_none;
      children = [||];
      cells_block = -1;
      leaf = Some (Emio.Run.of_array store segs);
    }
  else begin
    let n_blocks = (nv + block_size - 1) / block_size in
    let r = max 2 (min block_size (2 * n_blocks)) in
    let parts = Partitioner.kd ~points ~r in
    let children =
      Array.map
        (fun (cell, idxs) ->
          let subset = Array.map (fun i -> segs.(i)) idxs in
          let child =
            build_level ~stats ~block_size ~store ~cell_store ~level subset
          in
          { child with cell })
        parts
    in
    let cells_block =
      Emio.Store.alloc cell_store (Array.map (fun c -> c.cell) children)
    in
    {
      cell = Cells.bounding_box points;
      next_level = next_of segs;
      children;
      cells_block;
      leaf = None;
    }
  end

let slope_limit = 1e7

let build ~stats ~block_size segments =
  let store = Emio.Store.create ~stats ~block_size () in
  let cell_store = Emio.Store.create ~stats ~block_size () in
  let verticals = ref [] and regular = ref [] in
  Array.iteri
    (fun sid (a, b) ->
      let a, b = if Point2.compare a b <= 0 then (a, b) else (b, a) in
      let dx = Point2.x b -. Point2.x a in
      if Float.abs dx *. slope_limit <= Float.abs (Point2.y b -. Point2.y a)
      then
        verticals :=
          { sid; p1 = a; p2 = b; dual = [| 0.; 0. |] } :: !verticals
      else begin
        let slope = (Point2.y b -. Point2.y a) /. dx in
        let icept = Point2.y a -. (slope *. Point2.x a) in
        regular := { sid; p1 = a; p2 = b; dual = [| slope; icept |] } :: !regular
      end)
    segments;
  let regular = Array.of_list (List.rev !regular) in
  let root =
    if Array.length regular = 0 then None
    else
      Some (build_level ~stats ~block_size ~store ~cell_store ~level:1 regular)
  in
  {
    root;
    verticals = Emio.Run.of_list store (List.rev !verticals);
    cell_store;
  }

(* --- query ------------------------------------------------------------ *)

(* side of point p relative to the segment (a, b): sign of the cross
   product, with tolerance *)
let side a b p = Point2.orient a b p

let segments_intersect (a, b) (c, d) =
  let o1 = side a b c and o2 = side a b d in
  let o3 = side c d a and o4 = side c d b in
  if o1 = 0 && o2 = 0 && o3 = 0 && o4 = 0 then begin
    (* all four points collinear: intersect iff the 1-D spans overlap *)
    let overlap f =
      let lo1 = min (f a) (f b) and hi1 = max (f a) (f b) in
      let lo2 = min (f c) (f d) and hi2 = max (f c) (f d) in
      lo1 <= hi2 +. Eps.eps && lo2 <= hi1 +. Eps.eps
    in
    overlap Point2.x && overlap Point2.y
  end
  else o1 * o2 <= 0 && o3 * o4 <= 0

(* halfplane constraints on an endpoint being on the closed side of the
   query line y = s x + c *)
let below_line ~s ~c = { Cells.w = [| -.s; 1. |]; b = -.c }
let above_line ~s ~c = { Cells.w = [| s; -1. |]; b = c }

(* wedge constraints on the dual (slope, icept) of a stored line:
   [point_above q] selects lines strictly-or-touching below q *)
let point_above (q : Point2.t) =
  (* q above line(s): q.y >= slope * q.x + icept *)
  { Cells.w = [| Point2.x q; 1. |]; b = -.Point2.y q }

let point_below (q : Point2.t) =
  { Cells.w = [| -.Point2.x q; -1. |]; b = Point2.y q }

let query t qa qb =
  let qa, qb = if Point2.compare qa qb <= 0 then (qa, qb) else (qb, qa) in
  let out = Hashtbl.create 32 in
  let report sid = Hashtbl.replace out sid () in
  let brute run =
    Emio.Run.iter
      (fun s -> if segments_intersect (s.p1, s.p2) (qa, qb) then report s.sid)
      run
  in
  brute t.verticals;
  let dx = Point2.x qb -. Point2.x qa in
  if
    Float.abs dx *. slope_limit <= Float.abs (Point2.y qb -. Point2.y qa)
    || t.root = None
  then begin
    (* vertical query: exact scan fallback *)
    let rec scan_all n =
      (match n.leaf with Some run -> brute run | None -> ());
      Array.iter scan_all n.children
    in
    Option.iter scan_all t.root
  end
  else begin
    let s = (Point2.y qb -. Point2.y qa) /. dx in
    let c = Point2.y qa -. (s *. Point2.x qa) in
    (* level 3: the double wedge, as two 2-constraint queries *)
    let query_l3 (l3 : level3) =
      List.iter
        (fun wedge ->
          List.iter
            (fun i ->
              let sg = l3.segs3.(i) in
              if segments_intersect (sg.p1, sg.p2) (qa, qb) then
                report sg.sid)
            (Partition_tree.query_simplex l3.tree wedge))
        [ [ point_above qa; point_below qb ]; [ point_below qa; point_above qb ] ]
    in
    (* levels 1 and 2: canonical decomposition against a halfplane;
       reading a node's child-cell directory costs one I/O *)
    let rec descend node constr k_inside k_leaf =
      match node.leaf with
      | Some run -> k_leaf run
      | None ->
          let cells = Emio.Store.read t.cell_store node.cells_block in
          Array.iteri
            (fun i cell ->
              let child = node.children.(i) in
              match Cells.classify cell constr with
              | Cells.Inside -> k_inside child
              | Cells.Outside -> ()
              | Cells.Crossing -> descend child constr k_inside k_leaf)
            cells
    in
    let leaf_check run =
      Emio.Run.iter
        (fun sg -> if segments_intersect (sg.p1, sg.p2) (qa, qb) then report sg.sid)
        run
    in
    let query_l2 node constr2 =
      descend node constr2
        (fun child ->
          match (child.next_level, child.leaf) with
          | L3 l3, _ -> query_l3 l3
          | L_none, Some run -> leaf_check run
          | _ -> assert false)
        leaf_check
    in
    let run_case c1 c2 =
      match t.root with
      | None -> ()
      | Some root ->
          descend root c1
            (fun child ->
              match (child.next_level, child.leaf) with
              | L2 l2root, _ -> query_l2 l2root c2
              | L_none, Some run -> leaf_check run
              | _ -> assert false)
            leaf_check
    in
    (* p1 below & p2 above, and the mirrored case *)
    run_case (below_line ~s ~c) (above_line ~s ~c);
    run_case (above_line ~s ~c) (below_line ~s ~c)
  end;
  List.sort compare (Hashtbl.fold (fun sid () acc -> sid :: acc) out [])

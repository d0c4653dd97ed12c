open Geom

type t = { lp : Lowest_planes.t; points : Point2.t array }

let space_blocks t = Lowest_planes.space_blocks t.lp

let build ~stats ~block_size ?clip points =
  let planes = Array.map Plane3.lift points in
  let lp = Lowest_planes.build ~stats ~block_size ?clip planes in
  { lp; points }

let nearest t q ~k =
  let x = Point2.x q and y = Point2.y q in
  let lowest = Lowest_planes.k_lowest t.lp ~x ~y ~k in
  (* the lifted height at (x,y) is |p - q|^2 - |q|^2 *)
  let norm_q = (x *. x) +. (y *. y) in
  List.map
    (fun (id, h) -> (t.points.(id), sqrt (max 0. (h +. norm_q))))
    lowest

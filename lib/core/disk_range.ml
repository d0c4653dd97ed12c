open Geom

type t = {
  lp : Lowest_planes.t;
  points : Point2.t array;
  beta : int;
}

let log_base b x = log x /. log b

let compute_beta ~block_size n_points =
  let n = float_of_int (max 1 ((n_points + block_size - 1) / block_size)) in
  let b = float_of_int block_size in
  max 1 (int_of_float (ceil (b *. max 1. (log_base b n))))

let build ~stats ~block_size ?clip points =
  let planes = Array.map Plane3.lift points in
  let lp = Lowest_planes.build ~stats ~block_size ?clip planes in
  { lp; points; beta = compute_beta ~block_size (Array.length points) }

(* Same doubling protocol as §4.2: fetch the k lowest lifted planes
   along the vertical line at the center until one of them exceeds the
   lifted threshold r^2 - |c|^2.  Failed attempts roll back to the
   reporter mark, so retries build no intermediate lists. *)

let query_count t ~center ~radius =
  let n = Array.length t.points in
  if n = 0 then 0
  else begin
    let x = Point2.x center and y = Point2.y center in
    let threshold = (radius *. radius) -. (x *. x) -. (y *. y) +. Eps.eps in
    let rec go k =
      let k = min k n in
      let inside, retrieved =
        Lowest_planes.k_lowest_count t.lp ~x ~y ~k ~threshold
      in
      if inside < retrieved || k >= n then inside else go (2 * k)
    in
    go t.beta
  end

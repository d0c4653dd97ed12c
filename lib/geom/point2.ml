(** Points in the plane. *)

type t = { x : float; y : float }

let make x y = { x; y }
let x p = p.x
let y p = p.y

let equal p q = Eps.equal p.x q.x && Eps.equal p.y q.y

(* Lexicographic order (x, then y): the sweep order used everywhere. *)
let compare p q =
  let c = Float.compare p.x q.x in
  if c <> 0 then c else Float.compare p.y q.y

let dist2 p q =
  let dx = p.x -. q.x and dy = p.y -. q.y in
  (dx *. dx) +. (dy *. dy)

let dist p q = sqrt (dist2 p q)

(* Sign of the signed area of triangle (p, q, r): > 0 iff r is left of
   the directed line p -> q. *)
let orient p q r =
  (* same dead-zone policy as [Eps.sign], computed locally: the
     cross-module call would box its float argument on every
     orientation test, and this predicate dominates grid point
     location *)
  let d = ((q.x -. p.x) *. (r.y -. p.y)) -. ((q.y -. p.y) *. (r.x -. p.x)) in
  if d > Eps.eps then 1 else if d < -.Eps.eps then -1 else 0

(* Closed triangle containment, orientation-agnostic (the triangle may
   be given clockwise or counterclockwise). *)
let in_triangle a b c p =
  let o1 = orient a b p and o2 = orient b c p and o3 = orient c a p in
  (o1 >= 0 && o2 >= 0 && o3 >= 0) || (o1 <= 0 && o2 <= 0 && o3 <= 0)

let pp ppf p = Format.fprintf ppf "(%g, %g)" p.x p.y

let codec =
  Emio.Codec.map
    ~decode:(fun (x, y) -> { x; y })
    ~encode:(fun p -> (p.x, p.y))
    Emio.Codec.(pair float float)

let indexed_codec = Emio.Codec.(pair codec int)

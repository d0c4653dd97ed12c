(** Non-vertical planes in R^3, in the form [z = a x + b y + c].

    All planes arising in the §4 structure are duals of points and
    therefore non-vertical.  The duality (§2.1) maps the point
    (p1, p2, p3) to the plane z = -p1 x - p2 y + p3 and the plane
    z = a x + b y + c to the point (a, b, c); above/below is
    preserved (Lemma 2.1). *)

type t = { a : float; b : float; c : float }

let make ~a ~b ~c = { a; b; c }
let a p = p.a
let b p = p.b
let c p = p.c

let eval h x y = (h.a *. x) +. (h.b *. y) +. h.c

(* The dual point of the plane, and the dual plane of a point. *)
let dual_point h = Point3.make h.a h.b h.c

let dual_plane_of_point (p : Point3.t) =
  { a = -.Point3.x p; b = -.Point3.y p; c = Point3.z p }

(* Lifting map (Theorem 4.3): the planar point (a, b) lifts to the
   plane z = a^2 + b^2 - 2 a x - 2 b y, so that the vertical distance
   at (p, q) between the lift and the paraboloid orders points by
   distance to (p, q). *)
let lift (p : Point2.t) =
  let a = Point2.x p and b = Point2.y p in
  { a = -2. *. a; b = -2. *. b; c = (a *. a) +. (b *. b) }

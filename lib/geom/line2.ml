(** Non-vertical lines in the plane, in slope–intercept form
    [y = slope * x + icept].

    All lines arising in the paper's 2-D structure are duals of points
    (§2.1) and therefore non-vertical.  Parallel lines (equal slopes)
    are supported; they simply never intersect. *)

type t = { slope : float; icept : float }

let make ~slope ~icept = { slope; icept }
let slope l = l.slope
let icept l = l.icept

let eval l x = (l.slope *. x) +. l.icept

(* Total order by (slope, intercept); the §3 clusters are stored in this
   order so that set difference C_k \ C_{k+1} is a linear merge. *)

let parallel l m = Eps.equal l.slope m.slope

(* x-coordinate of the intersection of two non-parallel lines. *)
let meet_x l m = (m.icept -. l.icept) /. (l.slope -. m.slope)

(* Strict comparisons of a line against a point, with tolerance. *)
let below_point l (p : Point2.t) = Eps.lt (eval l (Point2.x p)) (Point2.y p)
let above_point l (p : Point2.t) = Eps.lt (Point2.y p) (eval l (Point2.x p))
let through_point l (p : Point2.t) = Eps.equal (eval l (Point2.x p)) (Point2.y p)

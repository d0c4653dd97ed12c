(** The duality transform of §2.1 in the plane.

    The dual of the point (a, b) is the line y = -a x + b; the dual of
    the line y = s x + c is the point (s, c).  Lemma 2.1: a point p is
    above (below, on) a line l iff the dual line p* is above (below,
    on) the dual point l*.  In particular, reporting the points below a
    query line becomes reporting the dual lines below a query point —
    the form in which §3 solves the problem. *)

val line_of_point : Point2.t -> Line2.t
(** p ↦ p*. *)

val point_of_line : Line2.t -> Point2.t
(** l ↦ l*. *)

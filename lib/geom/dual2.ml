(** The duality transform of §2.1, in the plane.

    The dual of a point (a, b) is the line y = -a x + b, and the dual of
    the line y = s x + c is the point (s, c).  Lemma 2.1: a point p is
    above/below/on a line l iff the dual line p* is above/below/on the
    dual point l*. *)

let line_of_point (p : Point2.t) =
  Line2.make ~slope:(-.Point2.x p) ~icept:(Point2.y p)

let point_of_line (l : Line2.t) = Point2.make (Line2.slope l) (Line2.icept l)

(** Convex polygons in the plane with halfplane clipping.

    Used to build the faces of the projected 3-D lower envelope: the
    face of plane h is the clip box intersected with the halfplanes
    {h ≤ h_j} over the envelope neighbours j of h (§4.1). *)

type t = Point2.t array
(** Vertices in counterclockwise order; empty means the empty
    polygon. *)

val of_box : xmin:float -> ymin:float -> xmax:float -> ymax:float -> t
val vertices : t -> Point2.t array
val is_empty : t -> bool

val clip_halfplane : t -> fa:float -> fb:float -> fc:float -> t
(** Intersection with the halfplane {(x, y) | fa·x + fb·y + fc ≤ 0};
    results with fewer than three vertices collapse to the empty
    polygon. *)

(** Non-vertical lines in the plane, in slope–intercept form
    [y = slope * x + icept].

    All lines arising in the paper's 2-D structure are duals of points
    (§2.1) and therefore non-vertical.  Parallel lines (equal slopes)
    are supported; they simply never intersect. *)

type t

val make : slope:float -> icept:float -> t
val slope : t -> float
val icept : t -> float

val eval : t -> float -> float
(** Height of the line at the given abscissa. *)

val parallel : t -> t -> bool

val meet_x : t -> t -> float
(** Abscissa of the intersection of two non-parallel lines (division by
    ~0 if parallel — check {!parallel} first). *)

val below_point : t -> Point2.t -> bool
(** The line passes strictly below the point (within tolerance). *)

val above_point : t -> Point2.t -> bool
val through_point : t -> Point2.t -> bool

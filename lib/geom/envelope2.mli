(** Static lower/upper envelopes of a set of non-vertical lines.

    The lower envelope is the pointwise minimum (a concave piecewise
    linear function); the upper envelope the pointwise maximum (convex).
    These stand in for the Overmars–van Leeuwen structure of §2.3: the
    level-walk of the arrangement queries, for a ray travelling right
    along a line from the envelope's outer side, the first point where
    the ray meets the envelope (see DESIGN.md substitution 2). *)

type kind = Lower | Upper

type t

val build : kind -> Line2.t array -> t
(** O(m log m).  Duplicate and dominated lines are dropped. *)

val size : t -> int
(** Number of segments of the envelope. *)

val eval : t -> float -> float
(** Height of the envelope at [x].  Raises [Invalid_argument] on an
    empty envelope. *)

val outer_interval : t -> slope:float -> icept:float -> float array -> bool
(** [outer_interval t ~slope ~icept out] finds the open x-interval on
    which the probe [y = slope x + icept] is strictly on the envelope's
    outer side (below a lower envelope, above an upper one): it writes
    the ends to [out.(0)] and [out.(1)] and returns [true], or returns
    [false] if there is no such region.  Because the gap function is
    concave, this region is always a single interval, possibly with
    [neg_infinity] / [infinity] ends.  Allocates nothing: the 3-D
    structure probes every non-sample plane against its clip-wall
    envelopes (§4.1). *)

val breakpoints : t -> float array
(** The segment boundaries, left to right: strictly increasing. *)

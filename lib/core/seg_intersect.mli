(** Segment intersection searching: §7 open problem 2.

    Preprocess N segments so that all segments intersecting a query
    segment can be reported.  Two (non-collinear, non-vertical)
    segments s and q intersect iff

    - the endpoints of s lie on opposite closed sides of line(q), and
    - the endpoints of q lie on opposite closed sides of line(s);

    the first condition is two halfplane conditions on s's endpoints
    and the second is a double-wedge condition on the dual point of
    line(s) (§2.1).  We answer the conjunction with a three-level
    partition tree: level 1 partitions first endpoints, level 2 second
    endpoints, level 3 the dual points of the supporting lines, where
    every node of a level carries the next level's structure over its
    canonical subset — the classical multi-level partition tree the
    paper's machinery enables.  Space O(n log² n) blocks; queries
    O(n^{1/2+ε} polylog + t) I/Os.

    Vertical segments are stored aside and scanned per query; vertical
    query segments fall back to a scan (their supporting line has no
    dual).  All side tests are closed with the {!Geom.Eps} tolerance,
    so touching segments count as intersecting. *)

type t

val build :
  stats:Emio.Io_stats.t ->
  block_size:int ->
  (Geom.Point2.t * Geom.Point2.t) array ->
  t

val query : t -> Geom.Point2.t -> Geom.Point2.t -> int list
(** Indices (into the build array) of the segments intersecting the
    closed query segment. *)

val space_blocks : t -> int

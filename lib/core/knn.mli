(** k-nearest-neighbor searching in the plane via the lifting map
    (Theorem 4.3): O(n log2 n) expected blocks, O(log_B n + k/B)
    expected I/Os per query.

    Each point (a, b) lifts to the plane z = a² + b² - 2a x - 2b y;
    the vertical order of the lifted planes at (x, y) is the order of
    distance from (x, y), so the k nearest neighbors are the k lowest
    planes along the vertical line through the query
    ({!Lowest_planes}). *)

type t

val build :
  stats:Emio.Io_stats.t ->
  block_size:int ->
  ?clip:float * float * float * float ->
  Geom.Point2.t array ->
  t
(** [clip] bounds the query region; default (-1000,-1000,1000,1000). *)

val nearest : t -> Geom.Point2.t -> k:int -> (Geom.Point2.t * float) list
(** The [min k N] nearest input points, with their distances, ordered
    by increasing distance. *)

val space_blocks : t -> int

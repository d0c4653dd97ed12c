(** Circular range counting via the lifting map — the disk twin of
    Theorem 4.3.

    A point p lies within distance r of a center c iff p's lifted
    plane (z = |p|² - 2 p·(x,y)) passes below the point
    (c, r² - |c|²), so "the points in a disk" are exactly the answer
    to the halfspace problem of §4 on the lifted planes:
    O(n log₂ n) expected blocks, O(log_B n + t) expected I/Os. *)

type t

val build :
  stats:Emio.Io_stats.t ->
  block_size:int ->
  ?clip:float * float * float * float ->
  Geom.Point2.t array ->
  t

val query_count : t -> center:Geom.Point2.t -> radius:float -> int
(** Number of input points within (closed) distance [radius] of
    [center], by the §4.2 doubling protocol on the lifted planes
    (no result materialized). *)

(** External-memory planar point location over a set of triangles,
    bucketed on a uniform grid.

    This stands in for the external point-location structures of
    [Goodrich et al. / Arge et al.] that §4.1 cites (DESIGN.md
    substitution 4): locating a point costs one directory I/O plus
    ⌈|cell|/B⌉ I/Os for the bucket's triangles — O(1) expected I/Os on
    the uniform workloads the benchmarks use (the paper's §4 bounds are
    expected-case as well).  Space is O(n + sum of bucket overlaps)
    blocks.

    Triangles may overlap the clip boundary; queries outside the clip
    box return [None]. *)

type 'a t

val create :
  stats:Emio.Io_stats.t ->
  block_size:int ->
  ?cache_blocks:int ->
  clip:float * float * float * float ->
  items:(Geom.Point2.t array * 'a) array ->
  unit ->
  'a t
(** [items]: each entry is a triangle (3 corners, any orientation) with
    its payload. *)

val locate : 'a t -> float -> float -> 'a option
(** Payload of some triangle containing the query point (closed
    containment; if triangles overlap on boundaries, any match is
    returned). *)

val space_blocks : 'a t -> int

(** {2 Persistence} *)

type 'a portable

val to_portable : 'a t -> 'a portable
val of_portable : stats:Emio.Io_stats.t -> 'a portable -> 'a t
val portable_codec : 'a Emio.Codec.t -> 'a portable Emio.Codec.t

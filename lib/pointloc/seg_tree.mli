(** Worst-case planar point location over non-crossing segments: a
    segment tree over x with vertically-sorted canonical lists.

    Complements {!Grid}: the grid locator is O(1) expected I/Os on
    benign query distributions but has no worst-case guarantee; this
    structure answers any query in O(log n) I/Os — two per tree level:
    one fence block plus one data block per node on the root-to-leaf
    path — at the price of O(n log n) blocks of space.  The A6
    ablation bench compares the two.

    Segments may share endpoints but must not cross properly.  Each
    segment carries the payload of the region directly {e below} it;
    [locate_above] returns the payload of the lowest segment at or
    above the query point — for a triangulated subdivision, the
    triangle containing the query. *)

type 'a t

val create :
  stats:Emio.Io_stats.t ->
  block_size:int ->
  ?cache_blocks:int ->
  segments:(Geom.Point2.t * Geom.Point2.t * 'a) array ->
  unit ->
  'a t
(** Near-vertical segments are rejected with [Invalid_argument] (they
    have no "above"); filter them out first. *)

val locate_above : 'a t -> float -> float -> 'a option
(** Payload of the segment with the smallest height >= y - eps at
    abscissa [x], among segments whose x-span contains [x]. *)

val space_blocks : 'a t -> int

(** {2 Persistence} *)

type 'a portable

val to_portable : 'a t -> 'a portable
val of_portable : stats:Emio.Io_stats.t -> 'a portable -> 'a t
val portable_codec : 'a Emio.Codec.t -> 'a portable Emio.Codec.t

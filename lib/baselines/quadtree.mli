(** A bucket PR quadtree [Samet, §1.2 refs 46, 47]: recursive quadrant
    splits until every bucket holds at most B points.

    §1.2's centrepiece example: on uniform points a halfplane query
    costs O(√n + t) I/Os, but on N points hugging a diagonal line with
    a query line slightly perturbed from it, Ω(n) nodes straddle the
    boundary — the [sec12_adversarial] bench reproduces both. *)

type t

val build :
  stats:Emio.Io_stats.t -> block_size:int -> ?cache_blocks:int ->
  Geom.Point2.t array -> t
(** Cells split until they hold at most B points or reach depth 40. *)

val query_halfplane : t -> slope:float -> icept:float -> Geom.Point2.t list
val query_count : t -> slope:float -> icept:float -> int

val query_ids_into :
  t -> slope:float -> icept:float -> Emio.Reporter.t -> unit
(** Id form of {!query_halfplane}: same traversal (I/O-identical),
    appending each answering point's build-time index, no list. *)

val space_blocks : t -> int
val depth : t -> int

(** {2 Persistence} *)

val snapshot : t Diskstore.Snapshot.format
(** The ["lcsearch.quadtree"] snapshot format: leaf buckets are
    the payload; internal nodes ride in the skeleton. *)

(** The trivial baseline: points in ⌈N/B⌉ blocks, every query a full
    scan of Θ(n) I/Os.  Both the floor every structure must beat on
    small outputs and the (unbeatable) comparison point at t = Θ(n). *)

type t

val build :
  stats:Emio.Io_stats.t -> block_size:int -> ?cache_blocks:int ->
  Geom.Point2.t array -> t

val query_halfplane : t -> slope:float -> icept:float -> Geom.Point2.t list
(** Points with [y <= slope x + icept]. *)

val query_count : t -> slope:float -> icept:float -> int

val query_ids_into :
  t -> slope:float -> icept:float -> Emio.Reporter.t -> unit
(** Id form of {!query_halfplane}: same scan, appending each answering
    point's build-time index (its scan position), no list. *)

val space_blocks : t -> int

(** {1 The d-dimensional scan}

    Same Θ(n) scan over coordinate rows (points are float arrays of
    length [dim]).  It answers the paper's query form
    [x_d <= a0 + Σ a_i x_i] with the exact {!Partition.Cells}
    tolerance the partition trees use, which makes it the conformance
    oracle for every dimension. *)

type d

val build_d :
  stats:Emio.Io_stats.t -> block_size:int -> ?cache_blocks:int ->
  dim:int -> Partition.Cells.point array -> d
(** Raises [Invalid_argument] if [dim < 2] or any row has a different
    length. *)

val query_halfspace_d :
  d -> a0:float -> a:float array -> Partition.Cells.point list

val query_count_d : d -> a0:float -> a:float array -> int

val query_ids_into_d :
  d -> a0:float -> a:float array -> Emio.Reporter.t -> unit
(** Id form of {!query_halfspace_d}: same scan, appending each
    answering row's build-time index, no list. *)

val dim_d : d -> int
val space_blocks_d : d -> int

(** {1 Persistence} *)

type any = T2 of t | Td of d

val snapshot : any Diskstore.Snapshot.format
(** One kind, ["lcsearch.scan"], covers both variants: the skeleton
    records which one was saved, and reopening returns that arm. *)

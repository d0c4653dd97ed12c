(** A grid file [Nievergelt–Hinterberger–Sevcik, §1.2 ref 41]: a
    uniform bucket grid over the bounding box.  Good on uniform data,
    degenerate when the data (or the query boundary) concentrates in
    few cells — e.g. the §1.2 diagonal construction, where the query
    boundary crosses every occupied cell. *)

type t

val build :
  stats:Emio.Io_stats.t -> block_size:int -> ?cache_blocks:int ->
  Geom.Point2.t array -> t

val query_halfplane : t -> slope:float -> icept:float -> Geom.Point2.t list
val query_count : t -> slope:float -> icept:float -> int

val query_ids_into :
  t -> slope:float -> icept:float -> Emio.Reporter.t -> unit
(** Id form of {!query_halfplane}: same traversal (I/O-identical),
    appending each answering point's build-time index, no list. *)

val query_window : t -> Rect.t -> Geom.Point2.t list

val space_blocks : t -> int
val side : t -> int

(** {2 Persistence} *)

val snapshot : t Diskstore.Snapshot.format
(** The ["lcsearch.gridfile"] snapshot format: bucket blocks are
    the payload; the directory rides in the skeleton. *)

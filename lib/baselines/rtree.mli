(** An R-tree bulk-loaded with Sort-Tile-Recursive packing — the
    classical practical spatial index the paper's §1.2 compares against
    (Guttman's R-tree and variants [29, 9]).

    Supports halfplane and window queries.  Worst-case query cost is
    Θ(n) I/Os: §1.2's diagonal construction makes every leaf MBR
    straddle the query boundary (the [sec12_adversarial] bench
    reproduces this degradation). *)

type t

type packing =
  | Str  (** Sort-Tile-Recursive packing (the default) *)
  | Hilbert
      (** Hilbert-curve packing, the Hilbert R-tree of Kamel–Faloutsos
          (§1.2 ref [33]) *)

val build :
  stats:Emio.Io_stats.t -> block_size:int -> ?cache_blocks:int ->
  ?packing:packing -> Geom.Point2.t array -> t

val query_halfplane : t -> slope:float -> icept:float -> Geom.Point2.t list
val query_count : t -> slope:float -> icept:float -> int

val query_ids_into :
  t -> slope:float -> icept:float -> Emio.Reporter.t -> unit
(** Id form of {!query_halfplane}: same traversal (I/O-identical),
    appending each answering point's build-time index, no list. *)

val query_window : t -> Rect.t -> Geom.Point2.t list
(** Classical isothetic (window) range query. *)

val space_blocks : t -> int
val height : t -> int

val snapshot_format : kind:string -> t Diskstore.Snapshot.format
(** Leaf blocks become payload pages; internal levels ride in the
    skeleton (pinned in memory when reopened).  [kind] is the header
    tag, so each packing stamps its own (["lcsearch.rtree"],
    ["lcsearch.rtree-hilbert"]). *)

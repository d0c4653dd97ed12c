(** The optimal two-dimensional halfspace range reporting structure of
    §3 (Theorem 3.5): O(n) blocks of space, O(log_B n + t) I/Os per
    query, where n = N/B and t = T/B.

    Preprocess N points of the plane; a query is a closed halfplane
    [y <= a x + b] and reports every point inside it.

    The structure works in the dual (§2.1): the points become lines,
    the query becomes a point, and reporting points below the query
    line becomes reporting lines below the query point.  The lines are
    partitioned into layers L_1, L_2, ..., each stored as the greedy
    3λ-clustering of a random level λ_i ∈ [β, 2β] of the remaining
    arrangement, β = B log_B n.  A query walks the layers in order and
    stops at the first layer where fewer than λ_i lines of the relevant
    cluster lie below the query point — by Lemma 3.1 that cluster then
    contains every remaining answer. *)

type t

val build :
  stats:Emio.Io_stats.t ->
  block_size:int ->
  ?cache_blocks:int ->
  ?seed:int ->
  Geom.Point2.t array ->
  t
(** Duplicate points are stored once with multiplicity.  [seed] drives
    the random level choices (λ_i); default 0 makes builds
    deterministic. *)

val query : t -> slope:float -> icept:float -> Geom.Point2.t list
(** All input points (with multiplicity) satisfying
    [y <= slope * x + icept], up to the {!Geom.Eps} tolerance. *)

val query_count : t -> slope:float -> icept:float -> int
(** [List.length (query ...)], without materializing the list. *)

val query_ids_into :
  t -> slope:float -> icept:float -> Emio.Reporter.t -> unit
(** Append the build-time index of every answering point (with
    multiplicity) to the reporter, running the identical layer walk as
    {!query} without materializing results. *)

val length : t -> int
(** Number of points stored. *)

val layers : t -> int
(** Number of layers m (paper: m <= n / log_B n). *)

val lambdas : t -> int array
(** The random level λ_i used by each layer (the last entry is 0 for
    the final plain-scan layer, if present). *)

val space_blocks : t -> int
(** Disk blocks used — Theorem 3.5 promises O(n). *)

val last_clusters_visited : t -> int
(** Total clusters scanned by the most recent query, summed over the
    layers it visited — Lemma 3.4 bounds this by O(T_i/λ_i + 1) per
    layer; the Figure 5 bench audits it. *)

val last_layers_visited : t -> int
(** Layers the most recent query visited before halting. *)

val snapshot : t Diskstore.Snapshot.format
(** The ["lcsearch.h2"] snapshot format: entry blocks become
    checksummed payload pages, layers and boundary B-trees the
    skeleton.  See {!Diskstore.Snapshot}. *)

(** The space/query-time tradeoff structure of §6 (Theorem 6.1): a §5
    partition tree whose recursion stops at subsets of B^a points, each
    preprocessed into a §4 structure.  Space O(n log2 B) blocks; a
    3-dimensional halfspace query costs O((n/B^{a-1})^{2/3+ε} + t)
    expected I/Os. *)

type t

val build :
  stats:Emio.Io_stats.t ->
  block_size:int ->
  ?cache_blocks:int ->
  ?a:float ->
  ?clip:float * float * float * float ->
  Geom.Point3.t array ->
  t
(** [a] (default 1.5) sets the leaf capacity B^a; requires [a > 1].
    [clip] is forwarded to the §4 leaf structures. *)

val query_ids : t -> a:float -> b:float -> c:float -> int list
(** Indices of the points with [z <= a x + b y + c]. *)

val query_count : t -> a:float -> b:float -> c:float -> int
(** Same traversal, counting only — no result list is materialized
    (the §4 leaf structures are asked to count too). *)

val query_ids_into :
  t -> a:float -> b:float -> c:float -> Emio.Reporter.t -> unit
(** Same traversal as {!query_ids}, appending the answer ids to a
    reusable {!Emio.Reporter}; §4 leaf answers are remapped to global
    ids in place via {!Emio.Reporter.rewrite_from}. *)

val leaf_capacity : t -> int
val space_blocks : t -> int

val last_secondary_queries : t -> int
(** §4 leaf structures consulted by the most recent query. *)

val points : t -> Geom.Point3.t array
(** The build-time points, reassembled from the §4 leaf structures in
    pid order. *)

(** {2 Persistence} *)

val snapshot : t Diskstore.Snapshot.format
(** The ["lcsearch.tradeoff"] snapshot format: the leaf point-id
    store is the payload; the tree and the per-leaf h3 structures
    ride in the skeleton. *)

(** The shallow partition tree of §6 (Theorem 6.3 and the d-dimensional
    remark): O(n log_B n) blocks; 3-dimensional halfspace queries in
    O(n^ε + t) I/Os, d-dimensional ones in O(n^{1-1/⌊d/2⌋+ε} + t).

    Every node carries a shallow partition (Theorem 6.2, realized by
    the heuristic {!Partition.Partitioner.shallow} — DESIGN.md
    substitution 6) and, as a secondary structure, an ordinary
    partition tree (§5) over the same points.  A query counts how many
    child cells its hyperplane crosses: more than β log2 r of them
    certifies the query is not (N_v/r)-shallow at this node, and the
    whole subquery is handed to the secondary tree, whose
    O(n_v^{1-1/d} + t_v) cost is then dominated by the output term. *)

type t

val build :
  stats:Emio.Io_stats.t ->
  block_size:int ->
  ?cache_blocks:int ->
  ?shallow_factor:float ->
  dim:int ->
  Partition.Cells.point array ->
  t
(** [shallow_factor] scales the β log2 r crossing threshold
    (default 2.0). *)

val query_halfspace : t -> a0:float -> a:float array -> int list
(** Points satisfying [x_d <= a0 + Σ a_i x_i]. *)

val query_halfspace_into :
  t -> a0:float -> a:float array -> Emio.Reporter.t -> unit
(** Same traversal (I/O-identical), appending ids to a reusable
    {!Emio.Reporter} instead of building a list. *)

val query_halfspace_count : t -> a0:float -> a:float array -> int
(** Same traversal, counting only — allocation-free reporting. *)

val dim : t -> int
val space_blocks : t -> int

val last_secondary_uses : t -> int
(** How many nodes of the most recent query bailed out to their
    secondary structure — the benches report it to show shallow
    queries stay on the shallow path. *)

val points : t -> Partition.Cells.point array
(** The build-time points, re-read from the leaf blocks in pid order. *)

(** {2 Persistence} *)

val snapshot : t Diskstore.Snapshot.format
(** The ["lcsearch.shallow"] snapshot format: leaf blocks are the
    payload; internal nodes and the secondary partition trees ride
    in the skeleton. *)

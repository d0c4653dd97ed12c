(** The linear-size d-dimensional partition tree of §5 (Theorem 5.2):
    O(n) blocks, O(n^{1-1/d+ε} + t) I/Os per halfspace query — and the
    same bound for simplex queries (§5 remark (i)).

    Every node v holds a balanced partition (Theorem 5.1, realized by
    the {!Partition.Partitioner}s — DESIGN.md substitution 5) of its
    points into r_v = min(B, 2 n_v) parts, each pair (cell, child)
    stored in one disk block.  A query classifies every child cell:
    cells fully inside the query report their whole subtree in
    O(output/B) I/Os, cells fully outside are skipped, and crossing
    cells — at most O(r^{1-1/d}) of them — are visited recursively. *)

type t

type kind = Kd | Simplicial | Shallow

val build :
  stats:Emio.Io_stats.t ->
  block_size:int ->
  ?cache_blocks:int ->
  ?partitioner:kind ->
  dim:int ->
  Partition.Cells.point array ->
  t
(** [partitioner] defaults to [Kd].  All points must have [dim]
    coordinates. *)

val query_halfspace : t -> a0:float -> a:float array -> int list
(** Indices (into the build-time array) of the points satisfying
    [x_d <= a0 + Σ a_i x_i]. *)

val query_simplex : t -> Partition.Cells.constr list -> int list
(** Points satisfying every constraint (a simplex, or any convex
    polytope, as an intersection of halfspaces). *)

(** {2 Zero-allocation reporting}

    The [_into] variants append the answer ids to an {!Emio.Reporter}
    instead of building a list, and the [_count] variants just count —
    both run the identical traversal (same I/Os charged, same
    [last_visited_nodes]) without materializing results. *)

val query_halfspace_into :
  t -> a0:float -> a:float array -> Emio.Reporter.t -> unit

val query_halfspace_count : t -> a0:float -> a:float array -> int

val query_halfspace_iter : t -> a0:float -> a:float array -> (int -> unit) -> unit
(** Visitor form: calls the callback once per reported id, in
    traversal order — the primitive the [_into]/[_count] variants and
    delegating structures ({!Shallow_tree}) are built on. *)

val dim : t -> int
val space_blocks : t -> int

val last_visited_nodes : t -> int
(** Number of tree nodes the most recent query recursed into (the μ of
    the Theorem 5.2 analysis) — benches use it to verify the
    O(n^{1-1/d}) recursion bound independently of I/O counts. *)

val points : t -> Partition.Cells.point array
(** The build-time points, re-read from the leaf blocks in pid order —
    O(n/B) I/Os (used when reviving dependent state from a snapshot). *)

(** {2 Persistence} *)

type portable

val to_portable : embed_payload:bool -> t -> portable
(** Plain-data form.  [~embed_payload:true] also embeds the leaf
    blocks — needed when the tree is a component of another
    structure; the standalone snapshot keeps leaves as the payload
    section instead and passes [of_portable] their [backend]. *)

val of_portable :
  stats:Emio.Io_stats.t ->
  backend:Emio.Store_intf.backend option ->
  portable ->
  t

val portable_codec : portable Emio.Codec.t

val snapshot : t Diskstore.Snapshot.format
(** The ["lcsearch.ptree"] snapshot format: leaf blocks are the
    payload; internal nodes ride in the skeleton. *)

(** A certificate-enhanced 3-D partition tree: the upgrade path noted
    in DESIGN.md §7 for Table 1 row 3.

    The §5/§6 trees classify children by their *cells*, so a halfspace
    whose boundary slices a cell forces a recursion even when none of
    the child's points is below it.  Here every child also carries two
    certificates — the vertices of its points' lower and upper convex
    hulls — so the query can decide "no point below" (skip) and "all
    points below" (report the subtree) exactly:

    - the minimum of the affine gap z - a x - b y - a0 over a point set
      is attained at a lower-hull vertex (the z-coefficient is +1), and
      the maximum at an upper-hull vertex;
    - a child is recursed into only when the query plane genuinely
      separates its points, and separated children each contribute at
      least one output point, so a query visits
      O((T + 1) · depth) nodes — an output-sensitive bound: near-empty
      queries cost O(log_B n) I/Os instead of O(n^{2/3}).

    Certificates are stored in blocked runs and read only when the
    bounding box is inconclusive; children whose hulls would exceed the
    certificate cap fall back to plain cell classification, so space
    stays O(n) up to the (empirically small) hull sizes.  The EXT4
    bench compares this tree with the §5 and §6 structures. *)

type t

val build :
  stats:Emio.Io_stats.t ->
  block_size:int ->
  ?cache_blocks:int ->
  Geom.Point3.t array ->
  t
(** Each stored certificate holds at most 2·B points; larger hulls are
    dropped rather than truncated (truncation would be unsound). *)

val query_ids : t -> a0:float -> a:float array -> int list
(** Indices of the points with [z <= a0 + a.(0) x + a.(1) y]. *)

val query_count : t -> a0:float -> a:float array -> int
(** Same traversal as {!query_ids}, counting only (allocation-free). *)

val query_ids_into : t -> a0:float -> a:float array -> Emio.Reporter.t -> unit
(** Same traversal, appending ids to a reusable {!Emio.Reporter}. *)

val space_blocks : t -> int

val last_visited_nodes : t -> int
(** Nodes the most recent query recursed into — the benches verify the
    output-sensitive O((T+1) · depth) visit bound with it. *)

val certificate_items : t -> int
(** Total certificate points stored (the space overhead beyond the
    plain §5 tree). *)

val points : t -> Geom.Point3.t array
(** The build-time points, re-read from the leaf blocks in pid order. *)

val hull_certificates :
  order:int array -> Geom.Point3.t array -> (int array * int array) option
(** The positions of the lower and upper hull vertices of the points
    (facets with outward normal z below / above 0), each in ascending
    order, with the hull built in insertion [order]; None when the
    points are coplanar.  In general position the vertex sets, and so
    the stored certificates, do not depend on [order]; [build] uses a
    random order seeded by the point count. *)

(** {2 Persistence} *)

type portable
(** The skeleton: internal nodes and the certificate run. *)

val of_portable :
  stats:Emio.Io_stats.t -> backend:Emio.Store_intf.backend -> portable -> t
(** Revives a tree over [backend], which holds the leaf blocks. *)

val portable_codec : portable Emio.Codec.t

val map_certificates :
  (Geom.Point3.t array -> Geom.Point3.t array) -> portable -> portable
(** Replaces every stored certificate's vertices by [f] of them ([f]
    must keep the length).  A certificate is a vertex set: a
    permutation leaves every query's answer and model reads as they
    were, which is how snapshots that list certificates in another
    order (those written before the ascending order) stay valid. *)

val snapshot : t Diskstore.Snapshot.format
(** The ["lcsearch.cert"] snapshot format: leaf blocks are the
    payload; internal nodes and the certificate run ride in the
    skeleton. *)

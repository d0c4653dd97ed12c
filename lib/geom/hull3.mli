(** Randomized incremental 3-D convex hull with conflict lists.

    This is the engine behind the §4 structure: the lower envelope of a
    set of planes is, in the dual, the lower convex hull of their dual
    points, and the Clarkson–Shor conflict lists (Lemma 4.1) are
    exactly the point–facet visibility lists that the randomized
    incremental construction maintains.  We insert the first
    [sample_size] points of a permutation while tracking, for every
    facet, which of the NOT yet inserted points see it — precisely the
    conflict sets K(Δ) of §4.1 (DESIGN.md substitution 3).

    Facets are oriented triangles with outward normals; a point
    "sees" (conflicts with) a facet when it lies strictly outside the
    facet's supporting plane. *)

type facet = {
  a : int;
  b : int;
  c : int;  (** vertex ids, counterclockwise seen from outside *)
  normal : Point3.t;  (** outward normal (not normalized) *)
  conflicts : int array;
      (** ids of uninserted points strictly outside this facet *)
}

type t

val build : points:Point3.t array -> order:int array -> sample_size:int -> t
(** Builds the hull of the first [sample_size] points of [order]
    (a permutation of 0..N-1), tracking conflicts of the remaining
    points.  Raises [Invalid_argument] if the sample is degenerate
    (fewer than 4 affinely independent points).  This is
    [map_prefixes] with the single prefix [sample_size]. *)

val map_prefixes :
  points:Point3.t array ->
  order:int array ->
  prefixes:int array ->
  (t option -> 'a) ->
  'a array
(** [map_prefixes ~points ~order ~prefixes f] runs ONE insertion loop
    over [order] up to the last of [prefixes] (strictly ascending,
    each in [4, N]) and applies [f] after each prefix k: to [Some h],
    where [h] is bit-equal in facets, normals and conflicts to
    [build ~sample_size:k], or to [None] when those k points are
    degenerate.  [h] is the loop's own state: read it inside [f]
    only, except after the last prefix, when the loop is done. *)

val random_order : Random.State.t -> int -> int array
(** A uniformly random permutation of 0..n-1 (Fisher–Yates from the
    top): the insertion order the expected bounds assume. *)

val sample : t -> int array
(** The inserted prefix of [order]. *)

val in_sample : t -> int -> bool
(** Whether a point id is in {!sample}. *)

val facets : t -> facet array
(** The alive facets of the hull of the sample. *)

val lower_facets : t -> facet array
(** Facets whose outward normal points downward (z below [-1e-9]):
    in the dual these are the vertices of the lower envelope.  Upper
    facets are skipped before their conflict arrays are built. *)

val vertex_ids : t -> int list
(** Ids of the sample points that are hull vertices. *)

val check : points:Point3.t array -> t -> bool
(** Test oracle: every facet has all sample points on its inner side
    and its conflict list equal to the brute-force visibility set. *)

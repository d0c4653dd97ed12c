(** Triangulated lower envelopes of planes with conflict lists: the
    Δ(R_i) + K(Δ) layers of the §4.1 structure.

    [build] computes, for the sample R = a prefix of a permutation of
    the planes, the lower envelope of R restricted to a clip box in
    the xy-plane, fan-triangulates each envelope face, and attaches
    to every triangle Δ its conflict list K(Δ): the planes NOT in the
    sample that pass strictly below some point of Δ.  Because the gap
    between a plane and a face is affine, a plane conflicts with Δ iff
    it is below one of Δ's three corners, so:

    - corners that are envelope vertices take their conflict set from
      the corresponding hull facet of the dual lower hull ({!Hull3});
    - corners on the clip walls are resolved with 2-D wall envelopes
      ({!Envelope2.outer_interval});
    - rare numerically unresolved corners fall back to an exact scan.

    Queries against the envelope must stay strictly inside the clip
    box. *)

type triangle = {
  plane : int;  (** the sample plane forming the envelope here *)
  corners : Point2.t array;  (** the 3 plan-view corners *)
  corner_z : float array;  (** envelope height at each corner *)
  conflicts : int array;  (** K(Δ): non-sample planes below some point *)
}

type t = {
  triangles : triangle array;
  sample : int array;  (** ids of the planes in R *)
}

val build :
  planes:Plane3.t array ->
  hull:Hull3.t ->
  clip:float * float * float * float ->
  t
(** [hull] is the hull of the planes' dual points
    ({!Plane3.dual_point}) for the sample: {!Hull3.build}, or one
    prefix of {!Hull3.map_prefixes}, read before its loop moves on.
    Raises [Invalid_argument] on an empty clip box. *)

val locate_brute : t -> float -> float -> int option
(** Index of a triangle containing (x, y), by linear scan — the test
    oracle and the fallback when grid location misses. *)

val envelope_height : t -> int -> float -> float -> float
(** [envelope_height t tri x y] evaluates the triangle's plane at
    (x, y): the height of the envelope there. *)

val total_conflict_size : t -> int
(** Σ_Δ |K(Δ)| — Lemma 4.1(a) promises O(N) in expectation. *)

(** Points in the plane. *)

type t = { x : float; y : float }
(** Concrete (and all-float, so arrays of points stay unboxed-flat per
    element) on purpose: the baselines' per-point hot loops read
    coordinates with direct field access, which never boxes — the
    {!x}/{!y} accessor calls do box their result under [-opaque]
    (dune's default dev profile disables cross-module inlining). *)

val make : float -> float -> t
val x : t -> float
val y : t -> float

val equal : t -> t -> bool
(** Componentwise equality within {!Eps.eps}. *)

val compare : t -> t -> int
(** Lexicographic (x, then y): the sweep order used everywhere. *)

val dist : t -> t -> float

val orient : t -> t -> t -> int
(** [orient p q r] is the sign (within tolerance) of the signed area of
    the triangle (p, q, r): positive iff [r] lies to the left of the
    directed line p → q. *)

val in_triangle : t -> t -> t -> t -> bool
(** [in_triangle a b c p]: closed containment, accepting either vertex
    orientation. *)

val pp : Format.formatter -> t -> unit

val codec : t Emio.Codec.t
(** Two IEEE-754 floats — the on-disk form of a point. *)

val indexed_codec : (t * int) Emio.Codec.t
(** A point and its build-time index: the leaf item of every 2-d
    baseline whose layout permutes the input. *)

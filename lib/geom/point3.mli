(** Points (and free vectors) in R³. *)

type t

val make : float -> float -> float -> t
val x : t -> float
val y : t -> float
val z : t -> float

val equal : t -> t -> bool
(** Componentwise within {!Eps.eps}. *)

val sub : t -> t -> t
val cross : t -> t -> t
val dot : t -> t -> float

val orient3 : t -> t -> t -> t -> float
(** Six times the signed volume of the tetrahedron (a, b, c, d):
    positive when [d] is on the positive side of the plane through
    (a, b, c) oriented by the right-hand rule.  The visibility
    predicate of the incremental hull ({!Hull3}). *)

val codec : t Emio.Codec.t
(** Three IEEE-754 floats — the on-disk form of a point. *)

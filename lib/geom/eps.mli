(** Tolerance policy for floating-point geometry.

    The library works on IEEE doubles.  Inputs are assumed to be in
    "generic position up to eps": no three lines within [eps] of a
    common point, no two slopes within [eps], and so on.  The workload
    generators produce such inputs with probability 1; unit tests use
    integer-valued coordinates where exactness matters.  See DESIGN.md
    substitution 7. *)

val eps : float

val equal : float -> float -> bool
val lt : float -> float -> bool

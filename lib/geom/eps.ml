(* Tolerance policy for floating-point geometry.

   The library works on IEEE doubles.  Inputs are assumed to be in
   "generic position up to eps": no three lines within [eps] of a common
   point, no two slopes within [eps], etc.  Workload generators
   (lib/workload) produce such inputs with probability 1; unit tests use
   integer-valued coordinates where exactness matters.  See DESIGN.md
   substitution 7. *)

let eps = 1e-9

let equal x y = Float.abs (x -. y) <= eps
let lt x y = x < y -. eps

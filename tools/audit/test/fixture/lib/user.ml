(* Reaches Fix.Packed only as a first-class module and Fix.Applied
   only as a functor argument. *)
module type F = sig
  val f : int -> int
end

module Twice (M : sig
  val g : int -> int
end) =
struct
  let h n = M.g (M.g n)
end

module T = Twice (Fix.Applied)

let run n =
  let (module P : F) = (module Fix.Packed : F) in
  T.h (P.f n)

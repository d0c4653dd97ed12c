type config = { size : int; unread : bool }

val make : int -> config
val size : config -> int
val dead : int -> int
val inside : int -> int
val tested : int -> int
val opt : ?unused:int -> ?tested:int -> ?used:int -> int -> int
val opt_passed_on : ?x:int -> unit -> int

module Packed : sig
  val f : int -> int
end

module Applied : sig
  val g : int -> int
end

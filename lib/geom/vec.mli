(** A growable array (amortized O(1) push), shared by the incremental
    geometric constructions. *)

type 'a t

val create : unit -> 'a t
val push : 'a t -> 'a -> unit

val push_idx : 'a t -> 'a -> int
(** Push and return the element's index. *)

val get : 'a t -> int -> 'a
val iter : ('a -> unit) -> 'a t -> unit
val to_array : 'a t -> 'a array

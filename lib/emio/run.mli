(** A run: a sequence of items laid out in consecutive blocks of a
    {!Store}.  This is the external-memory "file" primitive: scanning a
    run of [L] items costs ⌈L/B⌉ I/Os, which is how conflict lists,
    clusters and leaf buckets are paid for throughout the paper. *)

type 'a t

val of_array : 'a Store.t -> 'a array -> 'a t
(** Lay the items out in ⌈length/B⌉ fresh blocks (charged as writes). *)

val of_blocks : 'a Store.t -> 'a array array -> 'a t
(** [of_blocks store blocks] is the run whose blocks are [blocks]
    themselves, in order: what {!of_array} writes for their
    concatenation, without copying the items again.  The store keeps
    the arrays, so the caller must not change them afterwards.  Every
    block but the last must hold exactly [Store.block_size store]
    items, and none may be empty. *)

val of_list : 'a Store.t -> 'a list -> 'a t

val store : 'a t -> 'a Store.t
(** The store the run's blocks live in. *)

val length : 'a t -> int

val block_count : 'a t -> int
(** Space occupied, in blocks. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Full scan; charges ⌈length/B⌉ reads. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val to_array : 'a t -> 'a array
(** Full scan into memory. *)

val read_block : 'a t -> int -> 'a array
(** [read_block r i] fetches the [i]-th block of the run (one read). *)

val iter_range : ('a -> unit) -> 'a t -> pos:int -> len:int -> unit
(** Visit items [pos, pos+len) in place: one read per touched block,
    i.e. O(⌈len/B⌉ + 1), with no intermediate copies, so the query hot
    paths can scan conflict lists and buckets without allocating. *)

(** {2 Persistence}

    A run over a {e shared} store (e.g. a snapshot's payload store)
    persists as just its block ids + length ({!to_portable}); a run
    over its own {e private} simulator store persists as a ['a stored]
    that embeds the store's blocks too. *)

val to_portable : 'a t -> int array * int
(** Block ids and length — enough to revive the run against a store
    that is persisted separately. *)

val of_portable : 'a Store.t -> int array * int -> 'a t
(** Inverse of {!to_portable}, given the revived store. *)

val portable_codec : (int array * int) Codec.t

type 'a stored
(** A run plus the blocks of its private simulator store. *)

val to_stored : 'a t -> 'a stored
(** @raise Invalid_argument if the run's store is external. *)

val of_stored : stats:Io_stats.t -> 'a stored -> 'a t

val stored_codec : 'a Codec.t -> 'a stored Codec.t

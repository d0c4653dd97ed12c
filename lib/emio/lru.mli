(** A fixed-capacity LRU set of block ids, used by {!Store} to model a
    main memory holding [capacity] blocks.  Capacity 0 models a cold
    cache where every block access is an I/O. *)

type t

val create : capacity:int -> t

val mem : t -> int -> bool

val touch : t -> int -> bool
(** [touch t id] records an access to block [id].  Returns [true] if
    the block was already resident (a cache hit); otherwise inserts it,
    evicting the least-recently-used block if full, and returns
    [false]. *)

val touch_report : t -> int -> bool * int option
(** Like {!touch}, but also reports the id evicted to make room (if
    any) so callers managing per-id payloads — e.g. a buffer pool
    writing back dirty pages — can act on the victim. *)

val clear : t -> unit

val size : t -> int

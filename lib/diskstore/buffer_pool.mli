(** A write-back page cache (buffer pool) over a {!Block_file}, with
    pluggable eviction.

    This is the real-machine counterpart of the simulator's LRU model
    cache ({!Emio.Store.create}'s [cache_blocks]): up to [capacity]
    page payloads stay resident; a read miss costs one physical page
    read, a dirty frame costs one physical page write when evicted or
    flushed, and resident accesses are free hits.  Hits and evictions
    are recorded in the underlying file's {!Emio.Io_stats} (physical
    transfers and byte counts are recorded by {!Block_file}), so
    [reads] = page faults, [writes] = write-backs, [hits] = I/Os saved
    by the pool. *)

type policy =
  | Lru  (** evict the least-recently-used frame *)
  | Clock  (** second-chance clock sweep (approximate LRU, O(1) state) *)

type t

val create : file:Block_file.t -> policy:policy -> capacity:int -> t
(** [capacity 0] disables caching: every access goes straight to the
    file (write-through), which is the reference behaviour the
    write-back path must be byte-identical to after a {!flush}. *)

val read_page : t -> int -> (bytes, Block_file.read_error) result
(** Resident: free hit.  Miss: one physical read (checksum-verified),
    then the page is cached.  The returned bytes are the pool's frame —
    do not mutate. *)

val write_page : t -> int -> bytes -> unit
(** Install the payload for a page.  The write is buffered (dirty
    frame) and reaches the file on eviction or {!flush}. *)

val flush : t -> unit
(** Write back every dirty frame (ascending page order) and [fsync].
    Frames stay resident and become clean. *)

val drop : t -> unit
(** {!flush}, then empty the pool — e.g. between build and query
    phases, or to measure cold-cache behaviour. *)

val file : t -> Block_file.t

val stats : t -> Emio.Io_stats.t

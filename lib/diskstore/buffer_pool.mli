(** A read cache of pages (buffer pool) over a {!Block_file}, with
    pluggable eviction.

    This is the real-machine counterpart of the simulator's LRU model
    cache ({!Emio.Store.create}'s [cache_blocks]): up to [capacity]
    page payloads stay resident; a read miss costs one physical page
    read, and resident reads are free hits.  Hits and evictions are
    recorded in the underlying file's {!Emio.Io_stats} (physical reads
    and byte counts are recorded by {!Block_file}), so [reads] = page
    faults and [hits] = I/Os saved by the pool.  The pool never
    writes: snapshot files are written once, by {!Snapshot.save}. *)

type policy =
  | Lru  (** evict the least-recently-used frame *)
  | Clock  (** second-chance clock sweep (approximate LRU, O(1) state) *)

type t

val create : file:Block_file.t -> policy:policy -> capacity:int -> t
(** [capacity 0] disables caching: every read goes straight to the
    file. *)

val read_page : t -> int -> (bytes, Block_file.read_error) result
(** Resident: free hit.  Miss: one physical read (checksum-verified),
    then the page is cached.  The returned bytes are the pool's frame —
    do not mutate. *)

val drop : t -> unit
(** Empty the pool — e.g. between build and query phases, or to
    measure cold-cache behaviour. *)

val file : t -> Block_file.t

val stats : t -> Emio.Io_stats.t

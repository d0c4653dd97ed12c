(** I/O accounting for the external-memory machine.

    Every block transferred between "disk" (the {!Store}) and "memory"
    counts as one I/O, exactly as in the standard external-memory model
    used by the paper: a read transfers one block of B items into
    memory, a write transfers one block out.  Cache hits (see
    {!Store.create}) are counted separately and are free.

    The same counters serve the real file-backed store
    ([Diskstore.Block_file] / [Diskstore.Buffer_pool]): there a read or
    write is one physical page transfer, [bytes_read]/[bytes_written]
    record the raw byte traffic, and [evictions] counts buffer-pool
    frame replacements.  The in-memory simulator never records bytes or
    evictions, so those stay zero for model-level experiments. *)

type t

val create : unit -> t

val reads : t -> int
(** Number of block (or page) reads charged so far. *)

val writes : t -> int
(** Number of block (or page) writes charged so far. *)

val total : t -> int
(** [reads + writes]. *)

val cache_hits : t -> int
(** Block accesses served by a cache — the simulator's LRU or the file
    backend's buffer pool — and therefore not charged. *)

val evictions : t -> int
(** Buffer-pool frame evictions (always [0] for the simulator). *)

val bytes_read : t -> int
(** Physical bytes read from disk (always [0] for the simulator). *)

val bytes_written : t -> int
(** Physical bytes written to disk (always [0] for the simulator). *)

(** The [record_*] functions also mirror each count into any installed
    {!Cost_ctx} (see {!Cost_ctx.with_ctx}), leaving these ambient
    counters themselves untouched by the scoping machinery. *)

val record_read : t -> unit
val record_write : t -> unit
val record_hit : t -> unit
val record_eviction : t -> unit
val record_bytes_read : t -> int -> unit
val record_bytes_written : t -> int -> unit

val record_read_traced : t -> bool
(** Like {!record_read} but additionally reports whether some
    installed context is tracing, in one context-stack walk — for the
    per-block hot paths (see {!Cost_ctx.note_read_traced}). *)

val record_write_traced : t -> bool
val record_hit_traced : t -> bool

val merge_into : src:t -> t -> unit
(** Add [src]'s counters into the target, mirroring the totals into any
    installed {!Cost_ctx} exactly as the equivalent [record_*] sequence
    would.  This is how a delegating layer folds per-shard accounting
    (accumulated under a private [t], possibly on a worker domain) back
    into its caller's sink; [src] is left untouched. *)

val reset : t -> unit
(** Zero all counters (including byte and eviction counters).  Used
    between the build phase and the query phase of an experiment. *)

(** A disk of blocks of ['a], over one of two interchangeable backends.

    The default backend is the purely in-memory {e simulator}: each
    block stores at most [block_size] items, and reading or writing a
    block charges one I/O to the attached {!Io_stats}, unless the block
    is resident in the store's LRU cache (see [cache_blocks]), in which
    case the access is a free cache hit — this models a main memory of
    [cache_blocks * block_size] items.  All of the paper's structures
    are laid out in stores like this one, so the I/O counts our
    benchmarks report are exactly the quantity Table 1 bounds.

    Passing [?backend] instead plugs in an external byte-level backend
    (see {!Store_intf.BACKEND}, implemented by [Diskstore.File_backend]):
    blocks are serialized through the store's {!Codec.t} and handed to
    the backend, which lays them out as fixed-size checksummed pages on
    a real file and records physical page reads/writes, buffer-pool
    hits and evictions, and byte counts through its own {!Io_stats}.
    The store itself charges nothing in that mode, so model-level
    accounting is never mixed with physical accounting.

    Serialization never uses [Marshal]: any store that needs to touch
    bytes (external mode, {!export_bytes}) must be given the element
    codec at creation time, which is what makes the on-disk form
    architecture- and compiler-independent. *)

type 'a t

val create :
  stats:Io_stats.t ->
  block_size:int ->
  ?cache_blocks:int ->
  ?codec:'a Codec.t ->
  ?backend:Store_intf.backend ->
  unit ->
  'a t
(** [cache_blocks] defaults to [0] (cold cache: every access charged).
    On the simulator backend it models main memory: resident blocks
    cost nothing.  On an external backend it sizes a decoded-block
    cache: the most recently read [cache_blocks] blocks keep their
    decoded payloads in memory, so re-reading them skips the charged
    fetch (the backend's counters simply see fewer reads — model-level
    accounting is still never charged in external mode).  [backend] defaults to the in-memory
    simulator.

    [codec] is the {e element} codec; the store derives the per-block
    wire format from it.  It is required when [backend] is given
    (raises [Invalid_argument] otherwise) and by {!export_bytes};
    a pure simulator store that is only ever embedded in a skeleton
    (via {!to_blocks}) may omit it. *)

val block_size : 'a t -> int
val stats : 'a t -> Io_stats.t

val cache_blocks : 'a t -> int
(** The LRU capacity this store was created with. *)

val with_cache_split : ?shards:int -> domains:int -> (unit -> 'r) -> 'r
(** Run the callback with every store's cache capacity split
    [shards * domains] ways ([shards] defaults to [1]).  The sharded
    layer passes [shards:K] so a K-shard structure queried over
    [domains] domains models the same total main memory as one
    unsharded structure — every per-shard, per-domain cache gets
    [cache_blocks / (shards * domains)] slots.  Block caches are {e per-domain} (each domain owns a private
    LRU, and in external mode a private decoded-payload table), created
    lazily on a domain's first access to the store; a cache created
    while a split is in force gets [max 1 (cache_blocks / domains)]
    slots, so a parallel batch over [domains] domains models the same
    total main memory as a sequential run.  The batch engine wraps its
    fan-out in this; sequential code never needs it (the main domain's
    cache is created at full capacity).  During a parallel run the
    structures must be read-only: {!write} invalidates only the writing
    domain's decoded copy. *)

val alloc : 'a t -> 'a array -> int
(** Store a fresh block (length ≤ [block_size]); charges one write and
    returns the new block id. *)

val read : 'a t -> int -> 'a array
(** Fetch a block; charges one read on a cache miss.  The returned
    array is the store's own copy and must not be mutated: in
    simulator mode and over a resident backend (see {!of_backend}) it
    is the stored block itself, shared by every reader.
    @raise Invalid_argument on a bad block id (simulator mode).
    @raise Codec.Decode if an external block's bytes are corrupt. *)

val write : 'a t -> int -> 'a array -> unit
(** Overwrite an existing block; charges one write. *)

val blocks_used : 'a t -> int
(** Number of allocated blocks: the structure's space in disk blocks. *)

val drop_cache : 'a t -> unit
(** Empty the LRU cache or the backend's buffer pool (e.g. between
    build and query phases).  Dirty pages are written back first. *)

val is_external : 'a t -> bool
(** [true] iff the store runs over an external (file) backend. *)

val backend : 'a t -> Store_intf.backend option

val flush : 'a t -> unit
(** Force dirty pages to stable storage (no-op for the simulator). *)

val close : 'a t -> unit
(** Release backend resources (no-op for the simulator). *)

val export_bytes : 'a t -> bytes array
(** Every block, codec-encoded — the payload a [Diskstore.Snapshot]
    persists.  Simulator mode encodes through the codec
    ([Invalid_argument] if the store has none); for external stores
    this returns the backend's raw payloads (only valid when the store
    is the backend's sole user). *)

(** {2 Snapshot reconstruction}

    Reviving a structure from a snapshot builds its stores out of
    persisted parts instead of [alloc] calls: {!of_blocks} rebuilds an
    auxiliary store whose blocks rode inside the skeleton section, and
    {!of_backend} wraps the snapshot's page-file payload backend. *)

val to_blocks : 'a t -> 'a array array
(** The blocks of a simulator-mode store, in id order — the form a
    skeleton embeds.  @raise Invalid_argument in external mode. *)

val of_blocks :
  stats:Io_stats.t ->
  block_size:int ->
  ?cache_blocks:int ->
  ?codec:'a Codec.t ->
  'a array array ->
  'a t
(** Simulator-mode store whose blocks are exactly the given array
    (ids [0..n-1]); the inverse of {!to_blocks}.
    @raise Codec.Decode if a block exceeds [block_size]. *)

val of_backend :
  stats:Io_stats.t ->
  block_size:int ->
  ?cache_blocks:int ->
  codec:'a Codec.t ->
  Store_intf.backend ->
  'a t
(** External-mode store over an already-populated backend; block ids
    [0 .. blocks_used - 1] are readable immediately.

    If the backend is resident ({!Store_intf.BACKEND.take_resident}
    returns its payloads), the store takes the bytes over and decodes
    every block here, once, into an array that is immutable while the
    structure is read-only — so concurrent readers on several domains
    share it.  A read then returns the decoded block and charges
    {!Store_intf.BACKEND.charge_read}, exactly what the backend's own
    read would have charged, with the same {!Cost_ctx} events;
    {!write} and {!alloc} keep the decoded array current (with a fresh
    decode of the written bytes, never the caller's array).
    @raise Codec.Decode if a resident block's bytes are corrupt. *)

val set_stats : 'a t -> Io_stats.t -> unit
(** Repoint the store's accounting at a fresh sink.  Needed when a
    structure revived from a snapshot skeleton is handed a fresh
    [Io_stats] for the reopened session. *)

(** A disk of blocks of ['a], over one of two interchangeable backends.

    The default backend is the purely in-memory {e simulator}: each
    block stores at most [block_size] items, and reading or writing a
    block charges one I/O to the attached {!Io_stats}, unless the block
    is resident in the store's LRU cache (see [cache_blocks]), in which
    case the access is a free cache hit — this models the paper's main
    memory of M = [cache_blocks] blocks.  All of the paper's structures
    are laid out in stores like this one, so the I/O counts our
    benchmarks report are exactly the quantity Table 1 bounds.

    Passing [?backend] instead plugs in an external byte-level backend
    (see {!Store_intf.BACKEND}, implemented by [Diskstore.File_backend]):
    blocks are serialized through the store's {!Codec.t} and handed to
    the backend, which lays them out as fixed-size checksummed pages on
    a real file and records physical page reads/writes, buffer-pool
    hits and evictions, and byte counts through its own {!Io_stats}.
    The store itself charges nothing in that mode, so model-level
    accounting is never mixed with physical accounting, and it keeps
    no cache: every read goes to the backend, whose buffer pool is the
    only cache of non-resident pages.

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
    On the simulator backend it is the paper's main memory M: every
    domain that touches the store gets a private LRU of exactly
    [cache_blocks] blocks, created on its first access, and resident
    blocks cost nothing — so a batch over D domains models D memories
    of M blocks each.  An external backend records the value (see
    {!cache_blocks}) but does not use it.  [backend] defaults to the
    in-memory simulator.

    [codec] is the {e element} codec; the store derives the per-block
    wire format from it.  It is required when [backend] is given
    (raises [Invalid_argument] otherwise) and by {!export_bytes};
    a pure simulator store that is only ever embedded in a skeleton
    (via {!to_blocks}) may omit it. *)

val block_size : 'a t -> int

val cache_blocks : 'a t -> int
(** The [cache_blocks] this store was created with (recorded, and
    persisted by snapshot skeletons, in external mode too). *)

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

val blocks_used : 'a t -> int
(** Number of allocated blocks: the structure's space in disk blocks. *)

val drop_cache : 'a t -> unit
(** Empty the calling domain's LRU cache or the backend's buffer pool
    (e.g. between build and query phases).  Dirty pages are written
    back first. *)

val is_external : 'a t -> bool
(** [true] iff the store runs over an external (file) backend. *)

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
    [0 .. blocks_used - 1] are readable immediately.  [cache_blocks]
    is only recorded (a reopened structure re-saves the value it was
    built with); every read reaches the backend.

    If the backend is resident ({!Store_intf.BACKEND.take_resident}
    returns its payloads), the store takes the bytes over and decodes
    every block here, once, into an array that is immutable while the
    structure is read-only — so concurrent readers on several domains
    share it.  A read then returns the decoded block and charges
    {!Store_intf.BACKEND.charge_read}, exactly what the backend's own
    read would have charged, with the same {!Cost_ctx} events;
    {!alloc} keeps the decoded array current (with a fresh decode of
    the written bytes, never the caller's array).
    @raise Codec.Decode if a resident block's bytes are corrupt. *)

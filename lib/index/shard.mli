(** Sharded scatter-gather layer: partition a dataset into K
    independent sub-datasets, build one inner structure per shard (in
    parallel on the {!Par} domain pool), and expose the result as an
    ordinary {!Index.S} instance whose queries scatter across the
    shards and gather ids/rows back — with spatial tile-pruning for
    the STR partitioner, exact summed {!Emio.Cost_ctx} accounting, and
    a CRC-checked directory snapshot format over K per-shard snapshot
    files.

    Shards are the unit of parallel builds and, later, of background
    merges for an LSM-style dynamic index (Nekrich's composition of
    immutable static structures) and of multi-node serving — see
    ROADMAP.md. *)

type partition =
  | Str
      (** Sort-tile-recursive spatial tiles over the first two
          coordinates (the rtree packing discipline): queries skip
          shards whose bounding tile provably misses the halfspace. *)
  | Hash  (** Deterministic hash of the global point index. *)

val partition_name : partition -> string
val partition_of_string : string -> partition option

val sharded_kind : string
(** The snapshot [kind] tag of the sharded manifest format,
    ["lcsearch.sharded"]. *)

val make :
  ?build_domains:int ->
  inner:(module Index.S) ->
  shards:int ->
  partition:partition ->
  unit ->
  (module Index.S)
(** [make ~inner ~shards ~partition ()] is an {!Index.S} that builds
    [shards] independent copies of [inner] (one per partition class;
    the effective count is clamped to the dataset size so no shard is
    empty) and scatter-gathers queries over them.  [query_into]
    translates each shard's local ids to global dataset ids via
    {!Emio.Reporter.rewrite_from}; [query_count] and [space_blocks]
    sum over (non-pruned) shards.  Each inner structure is
    built with a per-shard cache budget of [cache_blocks / K].

    [build_domains] caps the build fan-out (default
    {!Par.default_domains}); builds run one shard per pool task under
    private {!Emio.Io_stats} sinks that are folded into the caller's
    sink in shard order afterwards, so build accounting is bit-equal
    across domain counts.

    The instance reuses [inner]'s [name]/[dims]/[kinds]/[preferred],
    so every registry-driven consumer (benches, serve, conformance)
    treats it exactly like the unsharded structure.

    @raise Invalid_argument if [shards < 1]. *)

(** {2 Sharded snapshots}

    A sharded snapshot is a {e directory} holding one inner-format
    snapshot file per shard plus a [MANIFEST]: a CRC-32-guarded
    {!Emio.Codec.versioned} section recording the inner kind, the
    partitioner, K, the dimension, the builder meta string, and one
    entry per shard (file name, kind, whole-file CRC-32, bounding-tile
    corners, and the local-to-global id map).  Format version 2:
    decoding rejects id maps that are not, taken together, a
    permutation of [[0, total)]. *)

type entry = {
  file : string;  (** shard snapshot file, relative to the directory *)
  kind : string;
  crc : int;  (** CRC-32 of the shard snapshot file's bytes *)
  lo : float array;  (** bounding-tile corner, one value per dimension *)
  hi : float array;
  gids : int array;
      (** local id -> global dataset id *)
}

type manifest = {
  inner_kind : string;
  partition : partition;
  shards : int;
  dim : int;
  total : int;  (** dataset size n across all shards *)
  meta : string;
  entries : entry array;
}

val manifest_codec : manifest Emio.Codec.t
(** The MANIFEST payload (version 2). *)

val read_manifest : string -> (manifest, Diskstore.Snapshot.error) result
(** Read and verify (CRC, magic, version) the manifest of a sharded
    snapshot directory.  Damage maps onto the standard snapshot
    errors: a missing or short manifest is [Bad_header]/[Truncated], a
    CRC mismatch is [Bad_section_crc], undecodable bytes are
    [Bad_payload]. *)

val of_manifest :
  manifest -> ((module Index.S), Diskstore.Snapshot.error) result
(** The sharded wrapper a manifest describes: {!make} with its K and
    partitioner over the registry owner of its inner kind. *)

val open_snapshot :
  ?policy:Diskstore.Buffer_pool.policy ->
  ?cache_pages:int ->
  stats:Emio.Io_stats.t ->
  string ->
  ( Index.instance * Diskstore.Snapshot.info * manifest,
    Diskstore.Snapshot.error )
  result
(** Reopen a sharded snapshot directory generically: read the
    manifest, look the inner structure up by snapshot kind in the
    {!Registry}, {!make} a sharded wrapper with the manifest's K and
    partitioner, and load every shard through [Manifest_dir.load_parts],
    the loader Lsm directories share (each shard's buffer pool gets
    [cache_pages / K] pages, min 1; a disabled pool stays disabled).
    Shard files are CRC-checked against their manifest entries before
    loading; a missing shard file is rejected with [Missing_file].  The
    returned info aggregates the per-shard infos
    ([n_blocks]/[total_pages] summed) under kind {!sharded_kind}. *)

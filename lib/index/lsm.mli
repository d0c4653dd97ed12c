(** The LSM dynamization layer: §5 remark (iii) / §7 open problem 1,
    generalized to every registered structure.

    The paper notes that the standard partial-reconstruction method
    [Mehlhorn, ref. 39] dynamizes the §5 structure at
    O((log₂ n) log_B n) amortized I/Os per update.  Halfspace
    reporting is a decomposable query, so we keep the classic
    logarithmic method: O(log N) static structures of geometrically
    growing sizes, rebuilt by merging on insertion; deletions
    tombstone points and trigger a global rebuild once half the
    structure is dead.  Queries ask every level and filter tombstones,
    adding an O(log₂ n) factor to the query bound, exactly as the
    remark trades.  Nekrich, {e Dynamic Range Reporting in External
    Memory} (PAPERS.md), obtains O(log_B² N + k/B) dynamic 3-D
    reporting from this same static-to-dynamic reduction.

    [Lsm.make ~inner] wraps any {!Index.S} structure:

    - a small sorted-run {b memtable} (capacity [memtable_cap])
      absorbs [insert]/[delete]; deletes of spilled points become
      per-level tombstones;
    - {b levels} follow a binary counter: slot [i] holds at most
      [cap·2^i] points as one immutable built copy of the inner
      structure; a spill carries the occupied low slots into the first
      free one, rebuilding it on the calling domain; builds and
      queries charge the caller's [Io_stats] sink directly, so the
      totals match the inner structure's own;
    - {b queries} fan out across memtable + levels through the
      existing [Index.S] paths; every inner reports build-time ids, so
      tombstones are censored by id ({!Emio.Reporter.filter_from}),
      the one censoring path Nekrich's reduction needs;
    - {b snapshots} are versioned directories: a CRC-guarded MANIFEST
      (inner kind, build params, handle maps, tombstones, memtable
      log) plus one inner snapshot file per level, reopened through
      {!Registry.find_by_snapshot_kind}.

    The wrapper keeps the inner structure's [name], so registry-driven
    consumers treat a dynamized instance like the structure it wraps;
    its update capability is exposed through [Index.S.update]. *)

val lsm_kind : string
(** The snapshot kind tag ["lcsearch.lsm"] owned by every Lsm
    directory regardless of inner structure. *)

val default_memtable_cap : int

val make :
  ?memtable_cap:int ->
  ?build_domains:int ->
  inner:(module Index.S) ->
  unit ->
  (module Index.S)
(** Dynamize [inner].  [memtable_cap] (default
    {!default_memtable_cap}) bounds the memtable; smaller caps mean
    more, smaller levels.  [build_domains] is accepted for
    compatibility and ignored: each level rebuild is one inner build
    on the calling domain.  Raises [Invalid_argument] if
    [memtable_cap < 1]. *)

(** {2 Directory snapshots} *)

type level_entry = {
  slot : int;
  file : string;
  crc : int;
  handles : int array;  (** local id -> handle, inner build order *)
  rows : float array array;  (** local id -> coordinate row *)
  dead : int array;  (** tombstoned local ids, ascending *)
}

type manifest = {
  inner_kind : string;
  dim : int;
  cap : int;
  next_handle : int;
  merges : int;
  params : Index.build_params;
  meta : string;
  mem : (int * float array) array;
      (** live memtable entries (handle, row), handle order *)
  levels : level_entry array;
}

val manifest_codec : manifest Emio.Codec.t
(** The MANIFEST payload.  Decoding rejects manifests no save can
    write: tombstone ids that are not strictly ascending, and handles
    that repeat or are not below [next_handle]. *)

val read_manifest : string -> (manifest, Diskstore.Snapshot.error) result

val manifest_live_rows : manifest -> (int * float array) array
(** Live (handle, row) pairs recorded by a manifest, ascending by
    handle: what a rebuild-from-live conformance oracle is built
    from. *)

val open_snapshot :
  ?policy:Diskstore.Buffer_pool.policy ->
  ?cache_pages:int ->
  ?build_domains:int ->
  stats:Emio.Io_stats.t ->
  string ->
  ( Index.instance * Diskstore.Snapshot.info * manifest,
    Diskstore.Snapshot.error )
  result
(** Reopen an Lsm directory: read the manifest, resolve the inner
    structure by snapshot kind through {!Registry}, CRC-check and load
    each level through [Manifest_dir.load_parts] (the loader sharded
    directories share), and replay the memtable log.  With no level,
    the info's block size is the manifest's build-parameter one.  Handles (and therefore
    future [insert] handles) are stable across save/reopen.
    [build_domains] is ignored, as in {!make}. *)

(** One opener for every snapshot layout.

    A snapshot path holds one of three layouts: a single snapshot file
    (any registered structure), a sharded directory ({!Shard}), or a
    dynamic LSM directory ({!Lsm}), whose levels may themselves be
    sharded directories.  This module is the only place that tells
    them apart, resolves the registered {e base} structure at the
    bottom of the wrapper stack, and encodes/decodes the builder's
    workload meta string — so the CLI, the serve layer and the load
    generator share one open path.

    Layout detection: a directory is a snapshot only if it holds a
    [MANIFEST]; the LSM magic selects {!Lsm}, anything else (the
    sharded magic, or a MANIFEST too damaged to expose one) goes to
    {!Shard.read_manifest}, which reports the precise damage.  Any
    other path is read as a single snapshot file.  Errors are plain
    messages without the path; callers prefix it. *)

(** {2 Workload meta}

    [lcsearch build] records how it drew the dataset as
    [s=NAME;n=N;b=B;w=KIND;seed=S;d=D], followed by
    [;shards=K;partition=P] for sharded builds.  Replaying it (same
    seed, same {!Workload.rng} consumption) regenerates the exact
    dataset and query streams of the builder process. *)

type meta = {
  structure : string;  (** the base structure's registry name *)
  n : int;
  block_size : int;
  kind : Workloads.kind;
  seed : int;
  dim : int;
  shards : (int * Shard.partition) option;
}

val meta_to_string : meta -> string

val meta_of_string : string -> (meta, string) result
(** Inverse of {!meta_to_string}: [meta_to_string m] decodes to [m],
    and a decoded string re-encodes byte for byte when its keys appear
    in the encoder's order. *)

(** {2 Layouts and headers} *)

type layout =
  | File of Diskstore.Snapshot.info
  | Sharded of Shard.manifest
  | Lsm of Lsm.manifest

val read_layout : string -> (layout, string) result
(** The layout at a path and its header or manifest, without decoding
    the meta or resolving a structure ([inspect], build read-back). *)

type header = {
  layout : layout;
  base : (module Index.S);
      (** the registry owner of the kind at the bottom of the wrapper
          stack: what workload replay and rebuild oracles build *)
  meta : meta;
}

val read_header : string -> (header, string) result
(** {!read_layout}, plus the base structure and the decoded meta. *)

val open_ :
  ?policy:Diskstore.Buffer_pool.policy ->
  ?cache_pages:int ->
  stats:Emio.Io_stats.t ->
  string ->
  (Index.instance * Diskstore.Snapshot.info * header, string) result
(** Reopen any layout behind one {!Index.instance}: single files load
    through their registry owner's snapshot operations, directories
    through {!Shard.open_snapshot} or {!Lsm.open_snapshot}.  Load-time
    verification I/O is charged to [stats]. *)

val replay : header -> Random.State.t * Index.dataset
(** The builder's dataset, regenerated from the meta through [base],
    and the rng positioned where the builder's query stream starts. *)

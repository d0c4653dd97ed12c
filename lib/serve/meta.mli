(** Snapshot plumbing shared by {!Server} and {!Loadgen}: reopen any
    snapshot layout through {!Lcsearch_index.Snapshot_path.open_} and
    replay the builder's workload stream (the same seed positions the
    same {!Workload.rng}, so the dataset — and any query stream drawn
    after it — reproduces the build process's). *)

type workload = Lcsearch_index.Snapshot_path.meta = {
  structure : string;
  n : int;
  block_size : int;
  kind : Lcsearch_index.Workloads.kind;
  seed : int;
  dim : int;
  shards : (int * Lcsearch_index.Shard.partition) option;
}

type loaded = {
  name : string;  (** serving name = the structure's registry name *)
  dim : int;
  reports_ids : bool;
  inst : Lcsearch_index.Index.instance;
  info : Diskstore.Snapshot.info;
  meta_workload : workload;
  header : Lcsearch_index.Snapshot_path.header;
}

val load :
  ?policy:Diskstore.Buffer_pool.policy ->
  ?cache_pages:int ->
  string ->
  (loaded, string) result
(** Reopen [path] (single file, sharded or LSM directory).  Load-time
    verification I/O is charged to a throwaway stats sink.  Honors
    {!Diskstore.File_backend.set_resident_on_reopen}. *)

val replay_queries :
  loaded -> fraction:float -> count:int -> Lcsearch_index.Index.query array
(** Regenerate the dataset from the snapshot meta and draw [count]
    fresh halfspace queries of ~[fraction] selectivity, consuming the
    rng in the same order as [lcsearch query]. *)

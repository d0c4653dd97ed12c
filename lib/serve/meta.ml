module Index = Lcsearch_index.Index
module Snapshot_path = Lcsearch_index.Snapshot_path
module Workloads = Lcsearch_index.Workloads

type workload = Snapshot_path.meta = {
  structure : string;
  n : int;
  block_size : int;
  kind : Workloads.kind;
  seed : int;
  dim : int;
  shards : (int * Lcsearch_index.Shard.partition) option;
}

type loaded = {
  name : string;
  dim : int;
  reports_ids : bool;
  inst : Index.instance;
  info : Diskstore.Snapshot.info;
  meta_workload : workload;
  header : Snapshot_path.header;
}

let load ?policy ?cache_pages path =
  let stats = Emio.Io_stats.create () in
  match Snapshot_path.open_ ?policy ?cache_pages ~stats path with
  | Error e -> Error (path ^ ": " ^ e)
  | Ok (inst, info, header) ->
      (* the wrappers keep their inner structure's name, so every
         layout serves under its base structure's registry name *)
      let (module M : Index.S) = Index.structure inst in
      Ok
        {
          name = M.name;
          dim = header.meta.dim;
          reports_ids = M.reports_ids;
          inst;
          info;
          meta_workload = header.meta;
          header;
        }

let replay_queries loaded ~fraction ~count =
  let rng, ds = Snapshot_path.replay loaded.header in
  Array.of_list (Workloads.queries rng ds ~fraction ~count)

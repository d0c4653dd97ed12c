(* Layout detection, base-structure resolution and the workload-meta
   codec for every snapshot consumer.  See snapshot_path.mli. *)

let ( let* ) = Result.bind

type meta = {
  structure : string;
  n : int;
  block_size : int;
  kind : Workloads.kind;
  seed : int;
  dim : int;
  shards : (int * Shard.partition) option;
}

let meta_to_string m =
  let base =
    Printf.sprintf "s=%s;n=%d;b=%d;w=%s;seed=%d;d=%d" m.structure m.n
      m.block_size (Workloads.kind_name m.kind) m.seed m.dim
  in
  match m.shards with
  | None -> base
  | Some (k, p) ->
      Printf.sprintf "%s;shards=%d;partition=%s" base k (Shard.partition_name p)

let meta_of_string meta =
  let field key =
    List.find_map
      (fun kv ->
        match String.index_opt kv '=' with
        | Some i when String.sub kv 0 i = key ->
            Some (String.sub kv (i + 1) (String.length kv - i - 1))
        | _ -> None)
      (String.split_on_char ';' meta)
  in
  let str key =
    match field key with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "snapshot meta %S lacks %S" meta key)
  in
  let parsed key parse v =
    match parse v with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "bad %S in snapshot meta %S" key meta)
  in
  let int key = Result.bind (str key) (parsed key int_of_string_opt) in
  let* structure = str "s" in
  let* n = int "n" in
  let* block_size = int "b" in
  let* kind =
    let* w = str "w" in
    match
      List.find_opt (fun k -> Workloads.kind_name k = w) Workloads.kinds
    with
    | Some k -> Ok k
    | None -> Error (Printf.sprintf "unknown workload %S in snapshot meta" w)
  in
  let* seed = int "seed" in
  let* dim = int "d" in
  let* shards =
    match field "shards" with
    | None -> Ok None
    | Some _ ->
        let* k = int "shards" in
        let* p = str "partition" in
        let* p = parsed "partition" Shard.partition_of_string p in
        Ok (Some (k, p))
  in
  Ok { structure; n; block_size; kind; seed; dim; shards }

type layout =
  | File of Diskstore.Snapshot.info
  | Sharded of Shard.manifest
  | Lsm of Lsm.manifest

let snap r = Result.map_error Diskstore.Snapshot.error_to_string r

(* The one layout decision. *)
let detect path =
  if not (Sys.file_exists path && Sys.is_directory path) then Ok `File
  else if
    not (Sys.file_exists (Filename.concat path Manifest_dir.manifest_file))
  then Error "directory without a MANIFEST"
  else if Manifest_dir.magic path = Some Lsm.lsm_kind then Ok `Lsm
  else Ok `Sharded

let read_layout path =
  let* l = detect path in
  snap
    (match l with
    | `File -> Result.map (fun i -> File i) (Diskstore.Snapshot.read_info path)
    | `Sharded -> Result.map (fun m -> Sharded m) (Shard.read_manifest path)
    | `Lsm -> Result.map (fun m -> Lsm m) (Lsm.read_manifest path))

type header = { layout : layout; base : (module Index.S); meta : meta }

(* The registry-owned kind at the bottom of the wrapper stack.  An Lsm
   over the sharded wrapper records one sharded directory per level,
   so its base is the first level's. *)
let rec base_kind path = function
  | File i -> Ok i.Diskstore.Snapshot.kind
  | Sharded m -> Ok m.Shard.inner_kind
  | Lsm m
    when String.equal m.Lsm.inner_kind Shard.sharded_kind
         && Array.length m.Lsm.levels > 0 ->
      let level = Filename.concat path m.Lsm.levels.(0).Lsm.file in
      let* l = read_layout level in
      base_kind level l
  | Lsm m -> Ok m.Lsm.inner_kind

let header_of path layout =
  let* kind = base_kind path layout in
  let* base = snap (Registry.find_by_snapshot_kind kind) in
  let* meta =
    meta_of_string
      (match layout with
      | File i -> i.Diskstore.Snapshot.meta
      | Sharded m -> m.Shard.meta
      | Lsm m -> m.Lsm.meta)
  in
  Ok { layout; base; meta }

let read_header path =
  let* layout = read_layout path in
  header_of path layout

let open_ ?(policy = Diskstore.Buffer_pool.Lru) ?(cache_pages = 64) ~stats
    path =
  let* l = detect path in
  let* inst, info, layout =
    snap
      (match l with
      | `File ->
          let* info = Diskstore.Snapshot.read_info path in
          let* (module M : Index.S) =
            Registry.find_by_snapshot_kind info.Diskstore.Snapshot.kind
          in
          let ops = Option.get M.snapshot in
          let* t, info = ops.Index.load ~stats ~policy ~cache_pages path in
          Ok (Index.Instance ((module M), t), info, File info)
      | `Sharded ->
          Result.map
            (fun (inst, info, m) -> (inst, info, Sharded m))
            (Shard.open_snapshot ~policy ~cache_pages ~stats path)
      | `Lsm ->
          Result.map
            (fun (inst, info, m) -> (inst, info, Lsm m))
            (Lsm.open_snapshot ~policy ~cache_pages ~stats path))
  in
  let* header = header_of path layout in
  Ok (inst, info, header)

let replay h =
  let rng = Workload.rng h.meta.seed in
  let ds =
    Workloads.dataset rng ~kind:h.meta.kind ~dim:h.meta.dim ~n:h.meta.n h.base
  in
  (rng, ds)

(* Sharded scatter-gather layer.  See shard.mli for the contract; the
   two invariants everything below preserves are

   - bit-equality: for any K and either partitioner, query results
     (counts, ids, rows-as-sets) equal the unsharded structure's,
     because every point lands in exactly one shard and pruning only
     skips shards whose bounding tile provably misses the halfspace
     (with a safety margin well above summation rounding);

   - deterministic accounting: shard builds run under private
     Io_stats sinks folded into the caller's in shard order, and
     queries visit shards in shard order on the calling domain, so
     summed Cost_ctx I/Os are identical across runs and domain
     counts. *)

type partition = Str | Hash

let partition_name = function Str -> "str" | Hash -> "hash"

let partition_of_string = function
  | "str" -> Some Str
  | "hash" -> Some Hash
  | _ -> None

let sharded_kind = "lcsearch.sharded"

(* Margin added to the tile-pruning test over the structures' keep
   predicate f(p) <= Eps.eps: the box minimum of the linear form is
   computed in a different summation order than any structure's f, so
   give rounding ~1e-12 at workload magnitudes a wide berth. *)
let prune_margin = 1e-6

(* ------------------------------------------------------------------ *)
(* Dataset partitioning *)

let coord ds i j =
  match ds with
  | Index.Pts2 pts ->
      if j = 0 then Geom.Point2.x pts.(i) else Geom.Point2.y pts.(i)
  | Index.Pts3 pts ->
      if j = 0 then Geom.Point3.x pts.(i)
      else if j = 1 then Geom.Point3.y pts.(i)
      else Geom.Point3.z pts.(i)
  | Index.PtsD pts -> pts.(i).(j)

let subset ds idxs =
  match ds with
  | Index.Pts2 pts -> Index.Pts2 (Array.map (fun i -> pts.(i)) idxs)
  | Index.Pts3 pts -> Index.Pts3 (Array.map (fun i -> pts.(i)) idxs)
  | Index.PtsD pts -> Index.PtsD (Array.map (fun i -> pts.(i)) idxs)

let bbox ds idxs dim =
  let lo = Array.make dim infinity and hi = Array.make dim neg_infinity in
  Array.iter
    (fun i ->
      for j = 0 to dim - 1 do
        let c = coord ds i j in
        if c < lo.(j) then lo.(j) <- c;
        if c > hi.(j) then hi.(j) <- c
      done)
    idxs;
  (lo, hi)

(* Sort-tile-recursive over the first two coordinates, exactly the
   rtree packing discipline but cutting into K tiles of points instead
   of leaf blocks: ~sqrt(K) slices by x, each slice cut by y.  Tile
   counts per slice differ by at most one and point counts follow the
   tile shares, so with K <= n every tile is non-empty. *)
let str_groups ds ~n ~k =
  let by_coord j idxs =
    Array.sort
      (fun a b ->
        let c = Float.compare (coord ds a j) (coord ds b j) in
        if c <> 0 then c else Int.compare a b)
      idxs
  in
  let order = Array.init n (fun i -> i) in
  by_coord 0 order;
  let slices = max 1 (int_of_float (Float.ceil (sqrt (float_of_int k)))) in
  let slices = min slices k in
  let base = k / slices and rem = k mod slices in
  let groups = ref [] in
  let tiles_before = ref 0 in
  for s = 0 to slices - 1 do
    let tiles = base + if s < rem then 1 else 0 in
    let p0 = n * !tiles_before / k and p1 = n * (!tiles_before + tiles) / k in
    let slice = Array.sub order p0 (p1 - p0) in
    by_coord 1 slice;
    let m = Array.length slice in
    for t = 0 to tiles - 1 do
      let q0 = m * t / tiles and q1 = m * (t + 1) / tiles in
      groups := Array.sub slice q0 (q1 - q0) :: !groups
    done;
    tiles_before := !tiles_before + tiles
  done;
  Array.of_list (List.rev !groups)

(* SplitMix64 finalizer over the global index: a deterministic,
   architecture-independent hash (no Hashtbl.hash dependence). *)
let mix i =
  let open Int64 in
  let z = add (of_int i) 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  to_int (logxor z (shift_right_logical z 31)) land Stdlib.max_int

let hash_groups ~n ~k =
  let assign = Array.init n (fun i -> mix i mod k) in
  let sizes = Array.make k 0 in
  Array.iter (fun s -> sizes.(s) <- sizes.(s) + 1) assign;
  (* K <= n guarantees a non-empty assignment exists; if the hash left
     some class empty (only plausible at tiny n), fall back to the
     round-robin hash i mod k, which never does. *)
  if Array.exists (fun c -> c = 0) sizes then begin
    Array.fill sizes 0 k 0;
    for i = 0 to n - 1 do
      assign.(i) <- i mod k;
      sizes.(i mod k) <- sizes.(i mod k) + 1
    done
  end;
  let groups = Array.init k (fun s -> Array.make sizes.(s) 0) in
  let fill = Array.make k 0 in
  for i = 0 to n - 1 do
    let s = assign.(i) in
    groups.(s).(fill.(s)) <- i;
    fill.(s) <- fill.(s) + 1
  done;
  groups

(* ------------------------------------------------------------------ *)
(* Manifest *)

type entry = {
  file : string;
  kind : string;
  crc : int;
  lo : float array;
  hi : float array;
  gids : int array;
}

type manifest = {
  inner_kind : string;
  partition : partition;
  shards : int;
  dim : int;
  total : int;
  meta : string;
  entries : entry array;
}

let entry_codec =
  let open Emio.Codec in
  map
    ~decode:(fun ((file, kind, crc), (lo, hi, gids)) ->
      { file; kind; crc; lo; hi; gids })
    ~encode:(fun e -> ((e.file, e.kind, e.crc), (e.lo, e.hi, e.gids)))
    (pair
       (triple string string u32)
       (triple (array float) (array float) (array int)))

(* The id maps must partition [0, total): a short or out-of-range map
   would make a query raise or report wrong ids. *)
let check_gids ~total entries =
  let fail fmt = Printf.ksprintf (fun m -> raise (Emio.Codec.Decode m)) fmt in
  let n = Array.fold_left (fun acc e -> acc + Array.length e.gids) 0 entries in
  if n <> total then fail "shard id maps hold %d ids for %d points" n total;
  let seen = Bytes.make total '\000' in
  Array.iter
    (fun e ->
      Array.iter
        (fun g ->
          if g < 0 || g >= total then fail "shard id %d out of range" g;
          if Bytes.get seen g <> '\000' then fail "duplicate shard id %d" g;
          Bytes.set seen g '\001')
        e.gids)
    entries

let manifest_codec =
  let open Emio.Codec in
  versioned ~magic:sharded_kind ~version:2
    (map
       ~decode:(fun ((inner_kind, part, shards, dim), (total, meta, entries)) ->
         let partition =
           match part with
           | 0 -> Str
           | 1 -> Hash
           | t ->
               raise
                 (Decode (Printf.sprintf "bad shard partition tag %d" t))
         in
         if shards < 1 || Array.length entries <> shards then
           raise (Decode "shard manifest entry count mismatch");
         check_gids ~total entries;
         { inner_kind; partition; shards; dim; total; meta; entries })
       ~encode:(fun m ->
         ( ( m.inner_kind,
             (match m.partition with Str -> 0 | Hash -> 1),
             m.shards,
             m.dim ),
           (m.total, m.meta, m.entries) ))
       (pair (quad string u8 u32 u32) (triple int string (array entry_codec))))

let write_manifest dir m = Manifest_dir.write_manifest dir manifest_codec m

let read_manifest dir = Manifest_dir.read_manifest dir manifest_codec

(* ------------------------------------------------------------------ *)
(* The Index.S wrapper *)

let make ?build_domains ~inner:(module M : Index.S) ~shards ~partition () :
    (module Index.S) =
  if shards < 1 then invalid_arg "Shard.make: shards must be >= 1";
  (module struct
    type shard = {
      inner : M.t;
      gids : int array;
      lo : float array;
      hi : float array;
    }

    type t = {
      shards : shard array;
      dim : int;
      part : partition;
      mutable last_pruned : int;
    }

    (* Same name (and dims/kinds/preferred) as the inner structure, so
       registry-driven consumers — benches, serve, the conformance
       suite, loadgen's meta replay — treat a sharded instance exactly
       like the structure it wraps. *)
    let name = M.name
    let description = M.description ^ " (sharded scatter-gather)"
    let dims = M.dims
    let kinds = M.kinds
    let space_bound = M.space_bound
    let query_bound = M.query_bound
    let preferred = M.preferred

    let build ~(params : Index.build_params) ~stats ds =
      Index.check_params ~name params;
      let dim = Index.dataset_dim ds in
      let n = Index.dataset_length ds in
      let k = max 1 (min shards (max 1 n)) in
      let groups =
        match partition with
        | Str -> str_groups ds ~n ~k
        | Hash -> hash_groups ~n ~k
      in
      (* Per-shard cache budget: K structures model the same total
         main memory as one unsharded structure. *)
      let inner_params =
        {
          params with
          Index.cache_blocks =
            (if params.Index.cache_blocks = 0 then 0
             else max 1 (params.Index.cache_blocks / k));
        }
      in
      let per_stats = Array.init k (fun _ -> Emio.Io_stats.create ()) in
      let built = Array.make k None in
      let domains =
        match build_domains with
        | Some d -> max 1 (min d k)
        | None -> min (Par.default_domains ()) k
      in
      (* Shards are the pool's work items.  Worker domains never see the
         caller's Cost_ctx stack (it is thread-local), which is why
         each build charges a private sink, folded into the caller's
         afterwards — in shard order, so the totals are bit-equal
         whatever [domains] was. *)
      Emio.Cost_ctx.unscoped (fun () ->
          Par.run ~domains ~n:k (fun lo hi ->
              for s = lo to hi - 1 do
                built.(s) <-
                  Some
                    (M.build ~params:inner_params ~stats:per_stats.(s)
                       (subset ds groups.(s)))
              done));
      Array.iter (fun src -> Emio.Io_stats.merge_into ~src stats) per_stats;
      let shards =
        Array.init k (fun s ->
            let lo, hi = bbox ds groups.(s) dim in
            { inner = Option.get built.(s); gids = groups.(s); lo; hi })
      in
      { shards; dim; part = partition; last_pruned = 0 }

    (* Tile-pruning: the minimum over the shard's bounding box of
       f(p) = p_d - a0 - sum_i a_i p_i is attained at a corner; if even
       that exceeds the keep threshold (plus margin), no point of the
       shard can satisfy the halfspace.  An empty box (lo = +inf)
       prunes trivially. *)
    let pruned sh (q : Index.query) =
      let d = Array.length sh.lo in
      d > 0
      && begin
           let s = ref (sh.lo.(d - 1) -. q.a0) in
           for i = 0 to d - 2 do
             let ai = q.a.(i) in
             s := !s -. Float.max (ai *. sh.lo.(i)) (ai *. sh.hi.(i))
           done;
           !s > Geom.Eps.eps +. prune_margin
         end

    let scatter t q ~f =
      t.last_pruned <- 0;
      let acc = ref 0 in
      Array.iter
        (fun sh ->
          if pruned sh q then t.last_pruned <- t.last_pruned + 1
          else acc := !acc + f sh)
        t.shards;
      !acc

    let query t q =
      t.last_pruned <- 0;
      let rows = ref [] in
      for s = Array.length t.shards - 1 downto 0 do
        let sh = t.shards.(s) in
        if pruned sh q then t.last_pruned <- t.last_pruned + 1
        else rows := M.query sh.inner q :: !rows
      done;
      List.concat !rows

    let query_count t q = scatter t q ~f:(fun sh -> M.query_count sh.inner q)

    let query_into t q r =
      scatter t q ~f:(fun sh ->
          let m = Emio.Reporter.mark r in
          let c = M.query_into sh.inner q r in
          let gids = sh.gids in
          Emio.Reporter.rewrite_from r m (fun local -> gids.(local));
          c)

    let space_blocks t =
      Array.fold_left (fun acc sh -> acc + M.space_blocks sh.inner) 0 t.shards

    let counters t =
      ("shards", Array.length t.shards)
      :: ("last_pruned", t.last_pruned)
      :: Index.sum_counters
           (Array.to_list (Array.map (fun sh -> M.counters sh.inner) t.shards))

    (* Shard tiles are immutable by design (the STR tiling is fixed at
       build time, and inner handle spaces would collide across
       shards), so the update capability does not pass through the
       wrapper.  To update a sharded structure, compose the other way:
       [Lsm.make ~inner:(Shard.make ...)] keeps every level sharded
       while the Lsm layer owns the handle space. *)
    let update = None
    let shard_file s = Printf.sprintf "shard-%03d.snap" s

    let snapshot =
      let inner_ops = M.snapshot in
      {
        Index.snapshot_kind = sharded_kind;
        save =
          (fun t ~path ~meta ~page_size ->
            Manifest_dir.ensure_dir path;
            Array.iteri
              (fun s sh ->
                inner_ops.Index.save sh.inner
                  ~path:(Filename.concat path (shard_file s))
                  ~meta ~page_size)
              t.shards;
            let entries =
              Array.mapi
                (fun s sh ->
                  {
                    file = shard_file s;
                    kind = inner_ops.Index.snapshot_kind;
                    crc =
                      Manifest_dir.part_crc
                        (Filename.concat path (shard_file s));
                    lo = sh.lo;
                    hi = sh.hi;
                    gids = sh.gids;
                  })
                t.shards
            in
            write_manifest path
              {
                inner_kind = inner_ops.Index.snapshot_kind;
                partition = t.part;
                shards = Array.length t.shards;
                dim = t.dim;
                total =
                  Array.fold_left
                    (fun acc sh -> acc + Array.length sh.gids)
                    0 t.shards;
                meta;
                entries;
              });
        load =
          (fun ~stats ~policy ~cache_pages path ->
            let ( let* ) = Result.bind in
            let* m = read_manifest path in
            (* [empty] is never the answer: the codec requires a shard *)
            let empty =
              {
                Diskstore.Snapshot.kind = sharded_kind;
                meta = m.meta;
                version = 1;
                page_size = 0;
                block_size = 0;
                n_blocks = 0;
                total_pages = 0;
              }
            in
            let* inners, info =
              Manifest_dir.load_parts inner_ops ~inner_kind:m.inner_kind
                ~stats ~policy ~cache_pages ~empty path
                (Array.map (fun (e : entry) -> (e.file, e.crc)) m.entries)
            in
            let shards =
              Array.map2
                (fun (e : entry) inner ->
                  { inner; gids = e.gids; lo = e.lo; hi = e.hi })
                m.entries inners
            in
            Ok
              ( { shards; dim = m.dim; part = m.partition; last_pruned = 0 },
                info ));
      }
  end)

let of_manifest m =
  Result.map
    (fun inner -> make ~inner ~shards:m.shards ~partition:m.partition ())
    (Registry.find_by_snapshot_kind m.inner_kind)

let open_snapshot ?(policy = Diskstore.Buffer_pool.Lru) ?(cache_pages = 64)
    ~stats path =
  let ( let* ) = Result.bind in
  let* m = read_manifest path in
  let* (module Sh : Index.S) = of_manifest m in
  let* t, info = Sh.snapshot.Index.load ~stats ~policy ~cache_pages path in
  Ok (Index.Instance ((module Sh), t), info, m)

(* LSM dynamization layer.  See lsm.mli for the contract; the
   invariants everything below preserves are

   - decomposability: a halfspace query's answer over the whole point
     set is the disjoint union of the answers over the memtable and
     each level, minus tombstoned points — so fanning the existing
     Index.S query paths out across the levels and censoring dead ids
     reproduces the static structure's answer bit-for-bit;

   - the binary counter: slot i holds at most cap * 2^i points, a
     spill carries occupied low slots into the first free one, so at
     most O(log N) levels exist and every point is rebuilt O(log N)
     times over its lifetime (the logarithmic method's amortized
     charge);

   - deterministic accounting: every level (re)build runs as a task on
     the PR-5 domain pool under a private Io_stats sink that is folded
     into the caller's exactly once, after the pool joins — so summed
     I/O totals are bit-equal whatever the pool's domain count. *)

let lsm_kind = "lcsearch.lsm"
let default_memtable_cap = 64

(* ------------------------------------------------------------------ *)
(* Manifest *)

type level_entry = {
  slot : int;
  file : string;
  crc : int;
  handles : int array;  (* local id -> handle, build order *)
  rows : float array array;  (* local id -> coordinate row *)
  dead : int array;  (* tombstoned local ids, ascending *)
}

type manifest = {
  inner_kind : string;
  dim : int;
  cap : int;
  next_handle : int;
  merges : int;
  params : Index.build_params;
  meta : string;
  mem : (int * float array) array;  (* live memtable entries, handle order *)
  levels : level_entry array;
}

let entry_codec =
  let open Emio.Codec in
  map
    ~decode:(fun ((slot, file, crc), (handles, rows, dead)) ->
      let n = Array.length handles in
      if Array.length rows <> n then
        raise (Decode "lsm level handles/rows length mismatch");
      if Array.exists (fun j -> j < 0 || j >= n) dead then
        raise (Decode "lsm level tombstone id out of range");
      { slot; file; crc; handles; rows; dead })
    ~encode:(fun e -> ((e.slot, e.file, e.crc), (e.handles, e.rows, e.dead)))
    (pair
       (triple u32 string u32)
       (triple (array int) (array (array float)) (array int)))

let params_codec =
  let open Emio.Codec in
  map
    ~decode:(fun (block_size, cache_blocks, seed, extra) ->
      { Index.block_size; cache_blocks; seed; extra })
    ~encode:(fun (p : Index.build_params) ->
      (p.block_size, p.cache_blocks, p.seed, p.extra))
    (quad u32 u32 int (list (pair string float)))

let manifest_codec =
  let open Emio.Codec in
  versioned ~magic:lsm_kind ~version:1
    (map
       ~decode:(fun
           ((inner_kind, dim, cap, next_handle), (merges, params, meta), (mem, levels))
         ->
         if cap < 1 then raise (Decode "lsm memtable cap must be >= 1");
         if Array.length mem > cap then
           raise (Decode "lsm memtable log exceeds its capacity");
         Array.iteri
           (fun i e ->
             if i > 0 && e.slot <= levels.(i - 1).slot then
               raise (Decode "lsm level slots not strictly ascending"))
           levels;
         { inner_kind; dim; cap; next_handle; merges; params; meta; mem; levels })
       ~encode:(fun m ->
         ( (m.inner_kind, m.dim, m.cap, m.next_handle),
           (m.merges, m.params, m.meta),
           (m.mem, m.levels) ))
       (triple
          (quad string u32 u32 int)
          (triple u32 params_codec string)
          (pair (array (pair int (array float))) (array entry_codec))))

let read_manifest dir = Manifest_dir.read_manifest dir manifest_codec

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

(* A level snapshot is normally one file, CRC'd whole; a sharded inner
   saves a directory, whose integrity the shard manifest already
   guards per file — record crc 0 and skip the outer check. *)
let level_crc path = if Sys.is_directory path then 0 else Manifest_dir.file_crc path

let level_crc_ok path expected =
  if Sys.is_directory path then expected = 0
  else Manifest_dir.file_crc path = expected

(* Live (handle, row) pairs recorded by a manifest, ascending by
   handle: what a rebuild-from-live oracle is built from. *)
let manifest_live_rows m =
  let acc = ref [] in
  Array.iter
    (fun e ->
      let dead = Array.make (Array.length e.handles) false in
      Array.iter (fun j -> dead.(j) <- true) e.dead;
      Array.iteri
        (fun j h -> if not dead.(j) then acc := (h, e.rows.(j)) :: !acc)
        e.handles)
    m.levels;
  Array.iter (fun (h, row) -> acc := (h, row) :: !acc) m.mem;
  let out = Array.of_list !acc in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) out;
  out

(* ------------------------------------------------------------------ *)
(* The Index.S wrapper *)

let make ?(memtable_cap = default_memtable_cap) ?build_domains
    ~inner:(module M : Index.S) () : (module Index.S) =
  if memtable_cap < 1 then invalid_arg "Lsm.make: memtable_cap must be >= 1";
  (module struct
    type level = {
      inner : M.t;
      handles : int array;  (* local id -> handle *)
      rows : float array array;  (* local id -> row, inner build order *)
      dead : Bytes.t;  (* local id -> '\001' once tombstoned *)
      mutable dead_count : int;
      mutable dead_ids : int list;
    }

    type loc = Mem of int | Lev of int * int

    type t = {
      stats : Emio.Io_stats.t;
      params : Index.build_params;
      dim : int;
      cap : int;
      mem_handles : int array;
      mem_rows : float array array;
      mem_dead : Bytes.t;
      mutable mem_len : int;
      mutable mem_dead_count : int;
      mutable slots : level option array;  (* slot i <= cap * 2^i points *)
      mutable next_handle : int;
      mutable live_count : int;
      mutable merges : int;
      loc : (int, loc) Hashtbl.t;  (* live handle -> where it lives *)
    }

    (* Same name (and dims/kinds/preferred/bounds) as the inner
       structure, so registry-driven consumers — benches, serve, the
       conformance suite — treat a dynamized instance exactly like the
       structure it wraps. *)
    let name = M.name
    let description = M.description ^ " (LSM dynamized)"
    let dims = M.dims
    let kinds = M.kinds
    let space_bound = M.space_bound
    let query_bound = M.query_bound
    let preferred = M.preferred
    let reports_ids = M.reports_ids
    let batch_plane_sorted = M.batch_plane_sorted

    let row_of ds i =
      match ds with
      | Index.Pts2 pts ->
          [| Geom.Point2.x pts.(i); Geom.Point2.y pts.(i) |]
      | Index.Pts3 pts ->
          [|
            Geom.Point3.x pts.(i); Geom.Point3.y pts.(i); Geom.Point3.z pts.(i);
          |]
      | Index.PtsD pts -> Array.copy pts.(i)

    let dataset_of_rows ~dim rows =
      match M.preferred ~dim with
      | `Pts2 -> Index.Pts2 (Array.map (fun r -> Geom.Point2.make r.(0) r.(1)) rows)
      | `Pts3 ->
          Index.Pts3
            (Array.map (fun r -> Geom.Point3.make r.(0) r.(1) r.(2)) rows)
      | `PtsD -> Index.PtsD (Array.map Array.copy rows)

    (* The keep predicate f(p) = p_d - a0 - sum_i a_i p_i <= eps, the
       same threshold form (and the same eps = 1e-9) every structure in
       the repo tests, so memtable scans and tombstone subtraction
       agree with the levels on generated workloads. *)
    let satisfies row (q : Index.query) =
      let d = Array.length row in
      let s = ref (row.(d - 1) -. q.a0) in
      for i = 0 to d - 2 do
        s := !s -. (q.a.(i) *. row.(i))
      done;
      !s <= Geom.Eps.eps

    let check_query t (q : Index.query) =
      if Index.query_dim q <> t.dim then
        invalid_arg
          (Printf.sprintf "%s(lsm): %d-d query against a %d-d index" M.name
             (Index.query_dim q) t.dim)

    let slot_for cap n =
      let rec go i = if cap * (1 lsl i) >= n then i else go (i + 1) in
      go 0

    (* Build one level's inner structure as a task on the domain pool,
       charging a private sink folded into [t.stats] after the pool
       joins — exactly once, so accounting is deterministic across
       domain counts. *)
    let build_level t handles rows =
      t.merges <- t.merges + 1;
      let ds = dataset_of_rows ~dim:t.dim rows in
      let per = Emio.Io_stats.create () in
      let built = ref None in
      let domains = match build_domains with Some d -> max 1 d | None -> 1 in
      Emio.Cost_ctx.unscoped (fun () ->
          Par.run ~domains ~n:1 ~chunk:1 (fun lo hi ->
              for _ = lo to hi - 1 do
                built := Some (M.build ~params:t.params ~stats:per ds)
              done));
      Emio.Io_stats.merge_into ~src:per t.stats;
      {
        inner = Option.get !built;
        handles;
        rows;
        dead = Bytes.make (Array.length handles) '\000';
        dead_count = 0;
        dead_ids = [];
      }

    let ensure_slot t i =
      if i >= Array.length t.slots then begin
        let bigger = Array.make (2 * (i + 1)) None in
        Array.blit t.slots 0 bigger 0 (Array.length t.slots);
        t.slots <- bigger
      end

    let install t i lvl =
      ensure_slot t i;
      t.slots.(i) <- Some lvl;
      Array.iteri
        (fun j h ->
          if Bytes.get lvl.dead j = '\000' then Hashtbl.replace t.loc h (Lev (i, j)))
        lvl.handles

    let tombstones t =
      Array.fold_left
        (fun acc -> function Some l -> acc + l.dead_count | None -> acc)
        t.mem_dead_count t.slots

    (* Gather the live contents of the memtable (clearing it), sorted
       ascending by handle at the end by the caller. *)
    let drain_mem t acc =
      for i = t.mem_len - 1 downto 0 do
        if Bytes.get t.mem_dead i = '\000' then
          acc := (t.mem_handles.(i), t.mem_rows.(i)) :: !acc
      done;
      t.mem_len <- 0;
      t.mem_dead_count <- 0

    let drain_level t s lvl acc =
      for j = Array.length lvl.handles - 1 downto 0 do
        if Bytes.get lvl.dead j = '\000' then
          acc := (lvl.handles.(j), lvl.rows.(j)) :: !acc
      done;
      t.slots.(s) <- None

    let place_gathered t slot acc =
      let gathered = Array.of_list !acc in
      Array.sort (fun (a, _) (b, _) -> Int.compare a b) gathered;
      if Array.length gathered > 0 then
        install t slot
          (build_level t (Array.map fst gathered) (Array.map snd gathered))

    (* Binary-counter carry: merge the memtable and every occupied low
       slot into the first free one.  The gathered count is at most
       cap + sum_{j<i} cap*2^j = cap*2^i, so the invariant holds;
       tombstoned points are dropped here, never copied forward. *)
    let spill t =
      if t.mem_len > 0 then begin
        let acc = ref [] in
        drain_mem t acc;
        let slot = ref 0 in
        let carrying = ref true in
        while !carrying do
          ensure_slot t !slot;
          match t.slots.(!slot) with
          | None -> carrying := false
          | Some lvl ->
              drain_level t !slot lvl acc;
              incr slot
        done;
        place_gathered t !slot acc
      end

    (* Full compaction: once tombstones outnumber live points, rebuild
       everything into a single level and forget the dead. *)
    let compact t =
      let acc = ref [] in
      drain_mem t acc;
      Array.iteri
        (fun s -> function None -> () | Some lvl -> drain_level t s lvl acc)
        t.slots;
      let n = List.length !acc in
      if n > 0 then place_gathered t (slot_for t.cap n) acc

    let insert t row =
      if Array.length row <> t.dim then
        invalid_arg
          (Printf.sprintf "%s(lsm).insert: expected %d coordinates, got %d"
             M.name t.dim (Array.length row));
      let h = t.next_handle in
      t.next_handle <- h + 1;
      let i = t.mem_len in
      t.mem_handles.(i) <- h;
      t.mem_rows.(i) <- Array.copy row;
      Bytes.set t.mem_dead i '\000';
      t.mem_len <- i + 1;
      t.live_count <- t.live_count + 1;
      Hashtbl.replace t.loc h (Mem i);
      if t.mem_len >= t.cap then spill t;
      h

    let delete t h =
      match Hashtbl.find_opt t.loc h with
      | None -> false
      | Some where ->
          (match where with
          | Mem i ->
              Bytes.set t.mem_dead i '\001';
              t.mem_dead_count <- t.mem_dead_count + 1
          | Lev (s, j) ->
              let lvl = Option.get t.slots.(s) in
              Bytes.set lvl.dead j '\001';
              lvl.dead_count <- lvl.dead_count + 1;
              lvl.dead_ids <- j :: lvl.dead_ids);
          Hashtbl.remove t.loc h;
          t.live_count <- t.live_count - 1;
          if tombstones t > max 8 t.live_count then compact t;
          true

    let update =
      Some
        {
          Index.insert;
          delete;
          live = (fun t -> t.live_count);
        }

    let build ~(params : Index.build_params) ~stats ds =
      let dim = Index.dataset_dim ds in
      let n = Index.dataset_length ds in
      let t =
        {
          stats;
          params;
          dim;
          cap = memtable_cap;
          mem_handles = Array.make memtable_cap 0;
          mem_rows = Array.make memtable_cap [||];
          mem_dead = Bytes.make memtable_cap '\000';
          mem_len = 0;
          mem_dead_count = 0;
          slots = Array.make 4 None;
          next_handle = n;
          live_count = n;
          merges = 0;
          loc = Hashtbl.create (max 64 (2 * n));
        }
      in
      if n > 0 then begin
        let handles = Array.init n (fun i -> i) in
        let rows = Array.init n (row_of ds) in
        install t (slot_for memtable_cap n) (build_level t handles rows)
      end;
      t

    (* -------------------------------------------------------------- *)
    (* Queries: fan out over levels in slot order, then the memtable. *)

    (* Per-domain scratch reporter for censoring an id-reporting
       inner's answers on the count-only paths. *)
    let scratch : Emio.Reporter.t Emio.Tls.key =
      Emio.Tls.new_key (fun () -> Emio.Reporter.create ())

    let level_count lvl q =
      if lvl.dead_count = 0 then M.query_count lvl.inner q
      else if M.reports_ids then begin
        let r = Emio.Tls.get scratch in
        Emio.Reporter.clear r;
        ignore (M.query_into lvl.inner q r);
        Emio.Reporter.fold
          (fun acc j -> if Bytes.get lvl.dead j = '\000' then acc + 1 else acc)
          0 r
      end
      else begin
        (* a point-reporting inner counts its whole level; subtract the
           tombstoned rows that satisfy the query *)
        let dead_sat =
          List.fold_left
            (fun acc j -> if satisfies lvl.rows.(j) q then acc + 1 else acc)
            0 lvl.dead_ids
        in
        M.query_count lvl.inner q - dead_sat
      end

    let mem_count t q =
      let c = ref 0 in
      for i = 0 to t.mem_len - 1 do
        if Bytes.get t.mem_dead i = '\000' && satisfies t.mem_rows.(i) q then
          incr c
      done;
      !c

    let query_count t q =
      check_query t q;
      let total = ref (mem_count t q) in
      Array.iter
        (function None -> () | Some lvl -> total := !total + level_count lvl q)
        t.slots;
      !total

    let query t q =
      check_query t q;
      let out = ref [] in
      for i = t.mem_len - 1 downto 0 do
        if Bytes.get t.mem_dead i = '\000' && satisfies t.mem_rows.(i) q then
          out := Array.copy t.mem_rows.(i) :: !out
      done;
      for s = Array.length t.slots - 1 downto 0 do
        match t.slots.(s) with
        | None -> ()
        | Some lvl ->
            if M.reports_ids then begin
              let r = Emio.Tls.get scratch in
              Emio.Reporter.clear r;
              ignore (M.query_into lvl.inner q r);
              out :=
                Emio.Reporter.fold
                  (fun acc j ->
                    if Bytes.get lvl.dead j = '\000' then
                      Array.copy lvl.rows.(j) :: acc
                    else acc)
                  !out r
            end
            else begin
              let rows = M.query lvl.inner q in
              if lvl.dead_count = 0 then
                out := List.rev_append rows !out
              else begin
                (* multiset-subtract the tombstoned rows satisfying the
                   query; identical-coordinate rows are interchangeable,
                   so which copy is dropped does not matter *)
                let sub = Hashtbl.create 16 in
                List.iter
                  (fun j ->
                    if satisfies lvl.rows.(j) q then
                      Hashtbl.replace sub lvl.rows.(j)
                        (1
                        + Option.value ~default:0
                            (Hashtbl.find_opt sub lvl.rows.(j))))
                  lvl.dead_ids;
                List.iter
                  (fun row ->
                    match Hashtbl.find_opt sub row with
                    | Some c when c > 0 -> Hashtbl.replace sub row (c - 1)
                    | _ -> out := row :: !out)
                  rows
              end
            end
      done;
      !out

    let query_into t q r =
      check_query t q;
      if not M.reports_ids then query_count t q
      else begin
        let total = ref 0 in
        for s = 0 to Array.length t.slots - 1 do
          match t.slots.(s) with
          | None -> ()
          | Some lvl ->
              let m = Emio.Reporter.mark r in
              ignore (M.query_into lvl.inner q r);
              if lvl.dead_count > 0 then
                Emio.Reporter.filter_from r m (fun j ->
                    Bytes.get lvl.dead j = '\000');
              let handles = lvl.handles in
              Emio.Reporter.rewrite_from r m (fun j -> handles.(j));
              total := !total + (Emio.Reporter.length r - m)
        done;
        for i = 0 to t.mem_len - 1 do
          if Bytes.get t.mem_dead i = '\000' && satisfies t.mem_rows.(i) q then begin
            Emio.Reporter.add r t.mem_handles.(i);
            incr total
          end
        done;
        !total
      end

    let estimate t q =
      Array.fold_left
        (fun acc -> function
          | None -> acc
          | Some lvl -> acc +. M.estimate lvl.inner q)
        0. t.slots

    let space_blocks t =
      Array.fold_left
        (fun acc -> function
          | None -> acc
          | Some lvl -> acc + M.space_blocks lvl.inner)
        0 t.slots

    let counters t =
      let levels =
        Array.fold_left
          (fun acc -> function Some _ -> acc + 1 | None -> acc)
          0 t.slots
      in
      (* inner gauges summed across levels, first-seen key order *)
      let merged = ref [] in
      Array.iter
        (function
          | None -> ()
          | Some lvl ->
              List.iter
                (fun (key, v) ->
                  match List.assoc_opt key !merged with
                  | Some _ ->
                      merged :=
                        List.map
                          (fun (k', v') ->
                            if String.equal k' key then (k', v' + v)
                            else (k', v'))
                          !merged
                  | None -> merged := !merged @ [ (key, v) ])
                (M.counters lvl.inner))
        t.slots;
      ("levels", levels)
      :: ("memtable", t.mem_len - t.mem_dead_count)
      :: ("tombstones", tombstones t)
      :: ("merges", t.merges)
      :: ("live", t.live_count)
      :: !merged

    (* -------------------------------------------------------------- *)
    (* Snapshots: a directory holding one inner snapshot per level
       plus a CRC-guarded MANIFEST recording handles, tombstones and
       the memtable log. *)

    let level_file slot = Printf.sprintf "level-%02d.snap" slot

    let snapshot =
      match M.snapshot with
      | None -> None
      | Some inner_ops ->
          Some
            {
              Index.snapshot_kind = lsm_kind;
              save =
                (fun t ~path ~meta ~page_size ->
                  if Sys.file_exists path then begin
                    if not (Sys.is_directory path) then
                      invalid_arg
                        (Printf.sprintf
                           "Lsm.save: %s exists and is not a directory" path)
                  end
                  else Sys.mkdir path 0o755;
                  let entries = ref [] in
                  Array.iteri
                    (fun s lvl_opt ->
                      match lvl_opt with
                      | None -> ()
                      | Some lvl ->
                          let f = level_file s in
                          let dst = Filename.concat path f in
                          (* write-then-rename: the level being saved
                             may be backed by the file it replaces *)
                          let tmp = dst ^ ".tmp" in
                          rm_rf tmp;
                          inner_ops.Index.save lvl.inner ~path:tmp ~meta
                            ~page_size;
                          if Sys.file_exists dst && Sys.is_directory dst then
                            rm_rf dst;
                          Sys.rename tmp dst;
                          let dead =
                            Array.of_list (List.sort Int.compare lvl.dead_ids)
                          in
                          entries :=
                            {
                              slot = s;
                              file = f;
                              crc = level_crc dst;
                              handles = lvl.handles;
                              rows = lvl.rows;
                              dead;
                            }
                            :: !entries)
                    t.slots;
                  let entries = Array.of_list (List.rev !entries) in
                  (* drop level files from earlier saves whose slot is
                     now empty *)
                  Array.iter
                    (fun f ->
                      if
                        String.length f >= 6
                        && String.sub f 0 6 = "level-"
                        && Filename.check_suffix f ".snap"
                        && not
                             (Array.exists
                                (fun e -> String.equal e.file f)
                                entries)
                      then rm_rf (Filename.concat path f))
                    (Sys.readdir path);
                  let mem = ref [] in
                  for i = t.mem_len - 1 downto 0 do
                    if Bytes.get t.mem_dead i = '\000' then
                      mem := (t.mem_handles.(i), t.mem_rows.(i)) :: !mem
                  done;
                  Manifest_dir.write_manifest path manifest_codec
                    {
                      inner_kind = inner_ops.Index.snapshot_kind;
                      dim = t.dim;
                      cap = t.cap;
                      next_handle = t.next_handle;
                      merges = t.merges;
                      params = t.params;
                      meta;
                      mem = Array.of_list !mem;
                      levels = entries;
                    });
              load =
                (fun ~stats ~policy ~cache_pages path ->
                  let ( let* ) = Result.bind in
                  let* m = read_manifest path in
                  let* () =
                    if String.equal m.inner_kind inner_ops.Index.snapshot_kind
                    then Ok ()
                    else
                      Error
                        (Diskstore.Snapshot.Kind_mismatch
                           {
                             expected = inner_ops.Index.snapshot_kind;
                             got = m.inner_kind;
                           })
                  in
                  let k = Array.length m.levels in
                  let per_pages = max 1 (cache_pages / max 1 k) in
                  let rec load_levels i acc =
                    if i = k then Ok (List.rev acc)
                    else begin
                      let e = m.levels.(i) in
                      let p = Filename.concat path e.file in
                      if not (Sys.file_exists p) then
                        Error
                          (Diskstore.Snapshot.Bad_header
                             (Printf.sprintf "missing level file %s" e.file))
                      else if not (level_crc_ok p e.crc) then
                        Error
                          (Diskstore.Snapshot.Bad_section_crc
                             { section = e.file })
                      else
                        let* inner, info =
                          inner_ops.Index.load ~stats ~policy
                            ~cache_pages:per_pages p
                        in
                        load_levels (i + 1) ((e, inner, info) :: acc)
                    end
                  in
                  let* loaded = load_levels 0 [] in
                  let t =
                    {
                      stats;
                      params = m.params;
                      dim = m.dim;
                      cap = m.cap;
                      mem_handles = Array.make m.cap 0;
                      mem_rows = Array.make m.cap [||];
                      mem_dead = Bytes.make m.cap '\000';
                      mem_len = Array.length m.mem;
                      mem_dead_count = 0;
                      slots = Array.make 4 None;
                      next_handle = m.next_handle;
                      live_count = 0;
                      merges = m.merges;
                      loc = Hashtbl.create 64;
                    }
                  in
                  Array.iteri
                    (fun i (h, row) ->
                      t.mem_handles.(i) <- h;
                      t.mem_rows.(i) <- row;
                      t.live_count <- t.live_count + 1;
                      Hashtbl.replace t.loc h (Mem i))
                    m.mem;
                  List.iter
                    (fun ((e : level_entry), inner, _) ->
                      let n = Array.length e.handles in
                      let lvl =
                        {
                          inner;
                          handles = e.handles;
                          rows = e.rows;
                          dead = Bytes.make n '\000';
                          dead_count = Array.length e.dead;
                          dead_ids = Array.to_list e.dead;
                        }
                      in
                      Array.iter (fun j -> Bytes.set lvl.dead j '\001') e.dead;
                      install t e.slot lvl;
                      t.live_count <- t.live_count + n - lvl.dead_count)
                    loaded;
                  let info =
                    let version, page_size, block_size =
                      match loaded with
                      | (_, _, i) :: _ ->
                          Diskstore.Snapshot.
                            (i.version, i.page_size, i.block_size)
                      | [] -> (1, 0, m.params.Index.block_size)
                    in
                    {
                      Diskstore.Snapshot.kind = lsm_kind;
                      meta = m.meta;
                      version;
                      page_size;
                      block_size;
                      n_blocks =
                        List.fold_left
                          (fun acc (_, _, i) ->
                            acc + i.Diskstore.Snapshot.n_blocks)
                          0 loaded;
                      total_pages =
                        List.fold_left
                          (fun acc (_, _, i) ->
                            acc + i.Diskstore.Snapshot.total_pages)
                          0 loaded;
                    }
                  in
                  Ok (t, info));
            }
  end)

let open_snapshot ?(policy = Diskstore.Buffer_pool.Lru) ?(cache_pages = 64)
    ?build_domains ~stats path =
  let ( let* ) = Result.bind in
  let* m = read_manifest path in
  let* (module Inner : Index.S) =
    (* An Lsm over a sharded structure stores one sharded directory per
       level; recover the shard configuration from the first level's
       own manifest, since the Shard wrapper is not registry-owned. *)
    if not (String.equal m.inner_kind Shard.sharded_kind) then
      Registry.find_by_snapshot_kind m.inner_kind
    else if Array.length m.levels = 0 then
      Error
        (Diskstore.Snapshot.Bad_header
           "lsm over a sharded inner needs at least one level to reopen")
    else
      let* sm = Shard.read_manifest (Filename.concat path m.levels.(0).file) in
      Shard.of_manifest sm
  in
  let (module L : Index.S) =
    make ~memtable_cap:m.cap ?build_domains ~inner:(module Inner) ()
  in
  let ops = Option.get L.snapshot in
  let* t, info = ops.Index.load ~stats ~policy ~cache_pages path in
  Ok (Index.Instance ((module L), t), info, m)

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

   - deterministic accounting: every level (re)build and every level
     query charges the caller's Io_stats sink (and the installed
     Cost_ctx stack) directly, on the calling domain — so summed build
     totals are bit-equal to the inner structure's own build charges,
     and a query's ambient delta equals its Cost_ctx count. *)

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
      Array.iteri
        (fun i j ->
          if i > 0 && j <= dead.(i - 1) then
            raise (Decode "lsm level tombstone ids not strictly ascending"))
        dead;
      { slot; file; crc; handles; rows; dead })
    ~encode:(fun e -> ((e.slot, e.file, e.crc), (e.handles, e.rows, e.dead)))
    (pair
       (triple u32 string u32)
       (triple (array int) (array (array float)) (array int)))

(* Two slots of the MANIFEST's params tuple (an int and a list of
   named floats) carry no build parameter: they are always written as
   0 and [] so the format, and every existing directory, keeps its
   bytes, and anything else fails to decode. *)
let params_codec =
  let open Emio.Codec in
  map
    ~decode:(fun (block_size, cache_blocks, seed, extra) ->
      if seed <> 0 || extra <> [] then
        raise (Decode "lsm build params: unsupported seed or extra slot");
      { Index.block_size; cache_blocks })
    ~encode:(fun (p : Index.build_params) ->
      (p.block_size, p.cache_blocks, 0, []))
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
         (* a handle names one point: a shared handle would let a
            delete tombstone only one of its points *)
         let handles =
           Array.concat
             (Array.map fst mem
             :: Array.to_list (Array.map (fun e -> e.handles) levels))
         in
         Array.sort Int.compare handles;
         Array.iteri
           (fun i h ->
             if h < 0 || h >= next_handle then
               raise (Decode (Printf.sprintf "lsm handle %d out of range" h));
             if i > 0 && h = handles.(i - 1) then
               raise (Decode (Printf.sprintf "duplicate lsm handle %d" h)))
           handles;
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

let make ?(memtable_cap = default_memtable_cap) ?build_domains:_
    ~inner:(module M : Index.S) () : (module Index.S) =
  if memtable_cap < 1 then invalid_arg "Lsm.make: memtable_cap must be >= 1";
  (module struct
    type level = {
      inner : M.t;
      handles : int array;  (* local id -> handle *)
      rows : float array array;  (* local id -> row, inner build order *)
      dead : Bytes.t;  (* local id -> '\001' once tombstoned *)
      mutable dead_count : int;
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

    (* The keep predicate f(p) = p_d - a0 - sum_i a_i p_i <= eps, the
       same threshold form (and the same eps = 1e-9) every structure in
       the repo tests, so memtable scans agree with the levels on
       generated workloads. *)
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

    (* Build one level's inner structure on [t.stats], the caller's
       sink: its build charges land there and in the installed
       contexts once, and its later queries charge the same sink. *)
    let build_level t handles rows =
      t.merges <- t.merges + 1;
      let ds = Index.dataset_of_rows (module M) ~dim:t.dim rows in
      let inner = M.build ~params:t.params ~stats:t.stats ds in
      {
        inner;
        handles;
        rows;
        dead = Bytes.make (Array.length handles) '\000';
        dead_count = 0;
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
              lvl.dead_count <- lvl.dead_count + 1);
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
      (* checked up front: an empty dataset builds no level until the
         first spill *)
      Index.check_params ~name params;
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
        let rows = Array.init n (Index.row ds) in
        install t (slot_for memtable_cap n) (build_level t handles rows)
      end;
      t

    (* -------------------------------------------------------------- *)
    (* Queries: fan out over levels in slot order, then the memtable. *)

    (* Per-domain scratch reporter for censoring a level's answers on
       the count and row paths. *)
    let scratch : Emio.Reporter.t Domain.DLS.key =
      Domain.DLS.new_key (fun () -> Emio.Reporter.create ())

    (* Fold [f] over the live local ids a level reports for [q]. *)
    let fold_live lvl q f acc =
      let r = Domain.DLS.get scratch in
      Emio.Reporter.clear r;
      ignore (M.query_into lvl.inner q r);
      Emio.Reporter.fold
        (fun acc j -> if Bytes.get lvl.dead j = '\000' then f acc j else acc)
        acc r

    let level_count lvl q =
      if lvl.dead_count = 0 then M.query_count lvl.inner q
      else fold_live lvl q (fun acc _ -> acc + 1) 0

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
            out :=
              fold_live lvl q
                (fun acc j -> Array.copy lvl.rows.(j) :: acc)
                !out
      done;
      !out

    let query_into t q r =
      check_query t q;
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
        if Bytes.get t.mem_dead i = '\000' && satisfies t.mem_rows.(i) q
        then begin
          Emio.Reporter.add r t.mem_handles.(i);
          incr total
        end
      done;
      !total

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
      ("levels", levels)
      :: ("memtable", t.mem_len - t.mem_dead_count)
      :: ("tombstones", tombstones t)
      :: ("merges", t.merges)
      :: ("live", t.live_count)
      :: Index.sum_counters
           (Array.to_list t.slots
           |> List.filter_map (Option.map (fun lvl -> M.counters lvl.inner)))

    (* -------------------------------------------------------------- *)
    (* Snapshots: a directory holding one inner snapshot per level
       plus a CRC-guarded MANIFEST recording handles, tombstones and
       the memtable log. *)

    let level_file slot = Printf.sprintf "level-%02d.snap" slot

    let snapshot =
      let inner_ops = M.snapshot in
      {
        Index.snapshot_kind = lsm_kind;
        save =
          (fun t ~path ~meta ~page_size ->
            Manifest_dir.ensure_dir path;
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
                    inner_ops.Index.save lvl.inner ~path:tmp ~meta ~page_size;
                    if Sys.file_exists dst && Sys.is_directory dst then
                      rm_rf dst;
                    Sys.rename tmp dst;
                    let dead =
                      Seq.init (Array.length lvl.handles) Fun.id
                      |> Seq.filter (fun j -> Bytes.get lvl.dead j <> '\000')
                      |> Array.of_seq
                    in
                    entries :=
                      {
                        slot = s;
                        file = f;
                        crc = Manifest_dir.part_crc dst;
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
                       (Array.exists (fun e -> String.equal e.file f) entries)
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
            let empty =
              {
                Diskstore.Snapshot.kind = lsm_kind;
                meta = m.meta;
                version = 1;
                page_size = 0;
                block_size = m.params.Index.block_size;
                n_blocks = 0;
                total_pages = 0;
              }
            in
            let* inners, info =
              Manifest_dir.load_parts inner_ops ~inner_kind:m.inner_kind
                ~stats ~policy ~cache_pages ~empty path
                (Array.map
                   (fun (e : level_entry) -> (e.file, e.crc))
                   m.levels)
            in
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
            Array.iter2
              (fun (e : level_entry) inner ->
                let n = Array.length e.handles in
                let lvl =
                  {
                    inner;
                    handles = e.handles;
                    rows = e.rows;
                    dead = Bytes.make n '\000';
                    dead_count = Array.length e.dead;
                  }
                in
                Array.iter (fun j -> Bytes.set lvl.dead j '\001') e.dead;
                install t e.slot lvl;
                t.live_count <- t.live_count + n - lvl.dead_count)
              m.levels inners;
            Ok (t, info));
      }
  end)

let open_snapshot ?(policy = Diskstore.Buffer_pool.Lru) ?(cache_pages = 64)
    ?build_domains:_ ~stats path =
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
    make ~memtable_cap:m.cap ~inner:(module Inner) ()
  in
  let* t, info = L.snapshot.Index.load ~stats ~policy ~cache_pages path in
  Ok (Index.Instance ((module L), t), info, m)

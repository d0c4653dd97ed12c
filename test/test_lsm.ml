(* The LSM dynamization layer: churn conformance (query results
   bit-equal to a static structure rebuilt from the live points, for
   several inner kinds x workloads x insert/delete interleavings x
   pool domain counts), deterministic accounting, the directory
   snapshot format (roundtrip, post-reopen churn, corruption matrix),
   and composition over the sharded wrapper. *)

module Index = Lcsearch_index.Index
module Registry = Lcsearch_index.Registry
module Workloads = Lcsearch_index.Workloads
module Lsm = Lcsearch_index.Lsm
module Shard = Lcsearch_index.Shard
module Snapshot_path = Lcsearch_index.Snapshot_path

let sorted_rows rows = List.sort compare (List.map Array.to_list rows)

let temp_dir () =
  let path = Filename.temp_file "lcsearch_lsm" ".snapdir" in
  Sys.remove path;
  let rec rm p =
    if Sys.file_exists p then
      if Sys.is_directory p then begin
        Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
        Sys.rmdir p
      end
      else Sys.remove p
  in
  at_exit (fun () -> try rm path with Sys_error _ -> ());
  path

let build_params = Index.default_params

(* A churn script shared by the dynamized instance and a (handle ->
   row) model: [`Ins i] inserts fresh row i of a pre-generated pool,
   [`Del k] deletes the k-th oldest live handle. *)
let interleavings =
  [
    ( "insert-burst",
      fun n_extra _live -> List.init n_extra (fun i -> `Ins i) );
    ( "alternating",
      fun n_extra _live ->
        List.concat (List.init n_extra (fun i -> [ `Ins i; `Del 0 ])) );
    ( "delete-heavy",
      fun n_extra live ->
        (* delete well past half the points to force compaction, then
           refill *)
        List.init (live * 3 / 5) (fun _ -> `Del 0)
        @ List.init n_extra (fun i -> `Ins i) );
  ]

let apply_churn (type a) (module L : Index.S with type t = a) (t : a) ~pool ops
    =
  let u = Option.get L.update in
  let model = ref [] (* (handle, row), newest first *) in
  let n0 = u.Index.live t in
  (* bulk-built handles are 0..n0-1 *)
  for h = n0 - 1 downto 0 do
    model := (h, None) :: !model
  done;
  List.iter
    (fun op ->
      match op with
      | `Ins i ->
          let row = pool.(i) in
          let h = u.Index.insert t row in
          model := !model @ [ (h, Some row) ]
      | `Del k ->
          let h, _ = List.nth !model k in
          let ok = u.Index.delete t h in
          if not ok then Alcotest.failf "delete of live handle %d refused" h;
          model := List.filter (fun (h', _) -> h' <> h) !model)
    ops;
  !model

(* Resolve the model against the original dataset rows: entries
   inserted during churn carry their row, originals index the build
   dataset. *)
let model_rows base model =
  List.map
    (fun (h, row) ->
      match row with Some r -> r | None -> base.(h))
    model

let conformance_case ~inner ~dim ~kind ~domains ~interleaving () =
  let (module M : Index.S) = Registry.find_exn inner in
  let rng = Workload.rng (9000 + (13 * dim) + (Hashtbl.hash inner mod 97)) in
  let n = 300 in
  let ds = Workloads.dataset rng ~kind ~dim ~n (module M : Index.S) in
  let base = Index.rows_of_dataset ds in
  let extra = Workloads.dataset rng ~kind ~dim ~n:150 (module M : Index.S) in
  let pool = Index.rows_of_dataset extra in
  let qs = Workloads.queries rng ds ~fraction:0.05 ~count:5 in
  let (module L : Index.S) =
    Lsm.make ~memtable_cap:16 ~build_domains:domains ~inner:(module M) ()
  in
  Alcotest.(check string) "name is the inner's" M.name L.name;
  Alcotest.(check bool) "updatable" true (Option.is_some L.update);
  let t = L.build ~params:build_params ~stats:(Emio.Io_stats.create ()) ds in
  let gen = List.assoc interleaving interleavings in
  let ops = gen (Array.length pool) n in
  let model = apply_churn (module L) t ~pool ops in
  let live = model_rows base model in
  let u = Option.get L.update in
  Alcotest.(check int) "live count" (List.length model) (u.Index.live t);
  (* the oracle: the same static structure rebuilt from the live rows *)
  let ods = Index.dataset_of_rows (module M) ~dim (Array.of_list live) in
  let oracle =
    M.build ~params:build_params ~stats:(Emio.Io_stats.create ()) ods
  in
  let handle_row = List.map (fun (h, r) -> (h, r)) model in
  List.iteri
    (fun i q ->
      let label fmt =
        Printf.sprintf "%s d=%d %s %s domains=%d q%d: %s" inner dim
          (Workloads.kind_name kind) interleaving domains i fmt
      in
      let want_rows = sorted_rows (M.query oracle q) in
      Alcotest.(check bool)
        (label "rows") true
        (sorted_rows (L.query t q) = want_rows);
      Alcotest.(check int)
        (label "count") (M.query_count oracle q) (L.query_count t q);
      let r = Emio.Reporter.create () in
      let c = L.query_into t q r in
      Alcotest.(check int) (label "query_into count") (List.length want_rows) c;
      (* reported handles must map back to exactly the oracle rows *)
      let got =
        List.sort compare
          (List.map
             (fun h ->
               match List.assoc_opt h handle_row with
               | Some (Some r) -> Array.to_list r
               | Some None -> Array.to_list base.(h)
               | None -> Alcotest.failf "reported dead handle %d" h)
             (Emio.Reporter.to_list r))
      in
      Alcotest.(check bool) (label "handles resolve to rows") true
        (got = want_rows))
    qs

(* ---- accounting: identical across runs and domain counts ---- *)

let test_cost_determinism () =
  let (module M : Index.S) = Registry.find_exn "ptree" in
  let rng = Workload.rng 777 in
  let ds = Workloads.dataset rng ~kind:Workloads.Uniform ~dim:2 ~n:300 (module M : Index.S) in
  let pool = Index.rows_of_dataset (Workloads.dataset rng ~kind:Workloads.Uniform ~dim:2 ~n:100 (module M : Index.S)) in
  let qs = Workloads.queries rng ds ~fraction:0.05 ~count:4 in
  let runs =
    List.map
      (fun domains ->
        let (module L : Index.S) =
          Lsm.make ~memtable_cap:16 ~build_domains:domains ~inner:(module M) ()
        in
        let stats = Emio.Io_stats.create () in
        let ctx = Emio.Cost_ctx.create () in
        let t =
          Emio.Cost_ctx.with_ctx ctx (fun () ->
              let t = L.build ~params:build_params ~stats ds in
              let u = Option.get L.update in
              Array.iteri (fun i row -> ignore (u.Index.insert t row : int);
                  if i mod 3 = 0 then ignore (u.Index.delete t i : bool))
                pool;
              t)
        in
        let churn_total = Emio.Io_stats.total stats in
        let costs =
          List.map
            (fun q ->
              let c = Emio.Cost_ctx.create () in
              let r = Emio.Cost_ctx.with_ctx c (fun () -> L.query_count t q) in
              (r, Emio.Cost_ctx.reads c, Emio.Cost_ctx.writes c))
            qs
        in
        Alcotest.(check int)
          (Printf.sprintf "domains %d: queries charge the caller's Io_stats"
             domains)
          (List.fold_left (fun acc (_, r, w) -> acc + r + w) 0 costs)
          (Emio.Io_stats.total stats - churn_total);
        (churn_total, Emio.Cost_ctx.total ctx, costs))
      [ 1; 2; 4 ]
  in
  match runs with
  | (st0, ct0, costs0) :: rest ->
      Alcotest.(check bool)
        "churn charges the caller's Cost_ctx like its Io_stats" true
        (st0 = ct0 && st0 > 0);
      List.iteri
        (fun i (st, ct, cs) ->
          Alcotest.(check int)
            (Printf.sprintf "run %d: stats total" (i + 2))
            st0 st;
          Alcotest.(check int) (Printf.sprintf "run %d: ctx total" (i + 2)) ct0 ct;
          Alcotest.(check bool)
            (Printf.sprintf "run %d: per-query costs identical" (i + 2))
            true (cs = costs0))
        rest
  | [] -> assert false

(* ---- level shape: binary counter + log-factor fanout ---- *)

let test_level_invariant () =
  let (module M : Index.S) = Registry.find_exn "h2" in
  let rng = Workload.rng 31 in
  let pool =
    Index.rows_of_dataset
      (Workloads.dataset rng ~kind:Workloads.Uniform ~dim:2 ~n:500
         (module M : Index.S))
  in
  let (module L : Index.S) =
    Lsm.make ~memtable_cap:8 ~inner:(module M) ()
  in
  let t =
    L.build ~params:build_params ~stats:(Emio.Io_stats.create ())
      (Index.Pts2 [||])
  in
  let u = Option.get L.update in
  Array.iter (fun row -> ignore (u.Index.insert t row : int)) pool;
  let counters = L.counters t in
  let levels = List.assoc "levels" counters in
  let mem = List.assoc "memtable" counters in
  Alcotest.(check bool)
    (Printf.sprintf "levels %d <= log2(500/8)+1" levels)
    true
    (levels <= 7);
  Alcotest.(check bool) "memtable below cap" true (mem < 8);
  Alcotest.(check int) "live" 500 (u.Index.live t);
  (* every insert is present *)
  let q_all = { Index.a0 = 1e9; a = [| 0. |] } in
  Alcotest.(check int) "all points reported" 500 (L.query_count t q_all)

(* ---- snapshots ---- *)

let meta =
  Snapshot_path.meta_to_string
    {
      structure = "h2";
      n = 256;
      block_size = 64;
      kind = Workloads.Uniform;
      seed = 3;
      dim = 2;
      shards = None;
    }

let save_lsm (type a) (module L : Index.S with type t = a) (t : a) path =
  let ops = L.snapshot in
  Alcotest.(check string) "snapshot kind" Lsm.lsm_kind ops.Index.snapshot_kind;
  ops.Index.save t ~path ~meta ~page_size:None

let test_roundtrip ~inner ~dim () =
  let (module M : Index.S) = Registry.find_exn inner in
  let rng = Workload.rng (555 + dim) in
  let ds =
    Workloads.dataset rng ~kind:Workloads.Uniform ~dim ~n:256
      (module M : Index.S)
  in
  let base = Index.rows_of_dataset ds in
  let pool =
    Index.rows_of_dataset
      (Workloads.dataset rng ~kind:Workloads.Uniform ~dim ~n:60
         (module M : Index.S))
  in
  let qs = Workloads.queries rng ds ~fraction:0.08 ~count:4 in
  let (module L : Index.S) =
    Lsm.make ~memtable_cap:16 ~inner:(module M) ()
  in
  let t = L.build ~params:build_params ~stats:(Emio.Io_stats.create ()) ds in
  let model =
    apply_churn (module L) t ~pool
      (List.concat (List.init 40 (fun i -> [ `Ins i; `Del 0 ])))
  in
  let path = temp_dir () in
  save_lsm (module L) t path;
  Alcotest.(check bool)
    "opener sees an lsm layout, not a sharded one" true
    (match Snapshot_path.read_layout path with
    | Ok (Snapshot_path.Lsm _) -> true
    | _ -> false);
  (match Lsm.read_manifest path with
  | Error e ->
      Alcotest.failf "manifest unreadable: %s"
        (Diskstore.Snapshot.error_to_string e)
  | Ok m ->
      Alcotest.(check int) "manifest cap" 16 m.Lsm.cap;
      Alcotest.(check int)
        "manifest live rows = model" (List.length model)
        (Array.length (Lsm.manifest_live_rows m)));
  match Lsm.open_snapshot ~stats:(Emio.Io_stats.create ()) path with
  | Error e ->
      Alcotest.failf "open_snapshot failed: %s"
        (Diskstore.Snapshot.error_to_string e)
  | Ok (inst, info, _m) ->
      Alcotest.(check string)
        "info kind" Lsm.lsm_kind info.Diskstore.Snapshot.kind;
      Alcotest.(check string) "instance name" M.name (Index.name inst);
      List.iteri
        (fun i q ->
          let label fmt =
            Printf.sprintf "%s d=%d reopened q%d: %s" inner dim i fmt
          in
          Alcotest.(check bool)
            (label "rows") true
            (sorted_rows (Index.query inst q) = sorted_rows (L.query t q));
          Alcotest.(check int)
            (label "count") (L.query_count t q)
            (Index.query_count inst q))
        qs;
      (* churn continues after reopen: handles are stable, inserts get
         fresh handles, and a second save into the same directory
         (levels shifted by merges) reopens cleanly *)
      let u = Option.get (Index.updater inst) in
      let h0, _ = List.nth model 0 in
      Alcotest.(check bool) "reopened delete" true (u.Index.u_delete h0);
      Alcotest.(check bool) "double delete refused" false (u.Index.u_delete h0);
      List.iteri
        (fun i row ->
          ignore (u.Index.u_insert row : int);
          ignore i)
        (List.filteri (fun i _ -> i >= 40 && i < 60)
           (Array.to_list pool));
      let live_now = u.Index.u_live () in
      Alcotest.(check int)
        "live after reopen churn"
        (List.length model - 1 + 20)
        live_now;
      Index.snapshot_save inst ~path ~meta ~page_size:None;
      (match Lsm.open_snapshot ~stats:(Emio.Io_stats.create ()) path with
      | Error e ->
          Alcotest.failf "second reopen failed: %s"
            (Diskstore.Snapshot.error_to_string e)
      | Ok (inst2, _, m2) ->
          Alcotest.(check int)
            "second reopen live rows" live_now
            (Array.length (Lsm.manifest_live_rows m2));
          List.iter
            (fun q ->
              Alcotest.(check int) "second reopen count"
                (Index.query_count inst q)
                (Index.query_count inst2 q))
            qs);
      ignore base

(* ---- corruption matrix ---- *)

let flip_byte path pos =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let b = Bytes.create len in
  really_input ic b 0 len;
  close_in ic;
  let pos = min pos (len - 1) in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xFF));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let build_saved_h2 () =
  let (module M : Index.S) = Registry.find_exn "h2" in
  let rng = Workload.rng 66 in
  let ds =
    Workloads.dataset rng ~kind:Workloads.Uniform ~dim:2 ~n:256
      (module M : Index.S)
  in
  let (module L : Index.S) =
    Lsm.make ~memtable_cap:16 ~inner:(module M) ()
  in
  let t = L.build ~params:build_params ~stats:(Emio.Io_stats.create ()) ds in
  let u = Option.get L.update in
  (* leave a tombstone and a memtable resident in the snapshot *)
  ignore (u.Index.delete t 0 : bool);
  ignore (u.Index.insert t [| 1.0; 2.0 |] : int);
  let path = temp_dir () in
  save_lsm (module L) t path;
  path

let expect_open_error label path pred =
  match Lsm.open_snapshot ~stats:(Emio.Io_stats.create ()) path with
  | Ok _ -> Alcotest.failf "%s: open_snapshot accepted damaged snapshot" label
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s" label (Diskstore.Snapshot.error_to_string e))
        true (pred e)

let test_corrupted_manifest () =
  let path = build_saved_h2 () in
  flip_byte (Filename.concat path "MANIFEST") 40;
  expect_open_error "corrupted manifest" path (function
    | Diskstore.Snapshot.Bad_section_crc _ | Diskstore.Snapshot.Bad_payload _
      ->
        true
    | _ -> false)

(* A CRC-valid manifest naming ids no save can produce is rejected at
   decode, before any level is loaded. *)
let test_impossible_ids () =
  let first_level f (m : Lsm.manifest) =
    {
      m with
      levels = Array.mapi (fun i e -> if i = 0 then f e else e) m.levels;
    }
  in
  List.iter
    (fun (label, edit) ->
      let path = build_saved_h2 () in
      (match Lsm.read_manifest path with
      | Error e ->
          Alcotest.failf "%s: manifest unreadable: %s" label
            (Diskstore.Snapshot.error_to_string e)
      | Ok m ->
          Lcsearch_index.Manifest_dir.write_manifest path Lsm.manifest_codec
            (edit m));
      expect_open_error label path (function
        | Diskstore.Snapshot.Bad_payload _ -> true
        | _ -> false))
    [
      ( "repeated tombstone",
        first_level (fun e -> { e with Lsm.dead = [| 3; 3 |] }) );
      ( "shared handle",
        first_level (fun e ->
            let handles = Array.copy e.Lsm.handles in
            handles.(1) <- handles.(0);
            { e with handles }) );
      ( "handle beyond next_handle",
        fun m -> { m with Lsm.next_handle = m.Lsm.next_handle - 1 } );
    ]

let test_truncated_manifest () =
  let path = build_saved_h2 () in
  let mf = Filename.concat path "MANIFEST" in
  let ic = open_in_bin mf in
  let b = Bytes.create 3 in
  really_input ic b 0 3;
  close_in ic;
  let oc = open_out_bin mf in
  output_bytes oc b;
  close_out oc;
  expect_open_error "truncated manifest" path (function
    | Diskstore.Snapshot.Truncated _ -> true
    | _ -> false)

let level_files path =
  Array.to_list (Sys.readdir path)
  |> List.filter (fun f ->
         String.length f >= 6 && String.sub f 0 6 = "level-")
  |> List.sort compare

let test_corrupted_level_file () =
  let path = build_saved_h2 () in
  let f = List.hd (level_files path) in
  flip_byte (Filename.concat path f) 2000;
  expect_open_error "corrupted level file" path (function
    | Diskstore.Snapshot.Bad_section_crc { section } -> String.equal section f
    | _ -> false)

let test_missing_level_file () =
  let path = build_saved_h2 () in
  let f = List.hd (level_files path) in
  Sys.remove (Filename.concat path f);
  expect_open_error "missing level file" path (function
    | Diskstore.Snapshot.Missing_file g as e ->
        String.equal g f
        && Diskstore.Snapshot.error_to_string e = "missing file " ^ f
    | _ -> false)

let test_not_lsm_paths () =
  let lsm p =
    match Snapshot_path.read_layout p with
    | Ok (Snapshot_path.Lsm _) -> true
    | _ -> false
  in
  Alcotest.(check bool) "regular file" false (lsm "dune");
  Alcotest.(check bool) "missing path" false (lsm "/nonexistent/lcsearch");
  match Lsm.read_manifest (Filename.get_temp_dir_name ()) with
  | Error (Diskstore.Snapshot.Bad_header _) -> ()
  | Error e ->
      Alcotest.failf "unexpected error: %s"
        (Diskstore.Snapshot.error_to_string e)
  | Ok _ -> Alcotest.fail "read_manifest on a plain directory must fail"

(* Directory saves commit their MANIFEST through a temp file and a
   rename: a save leaves no *.tmp behind, and a stale MANIFEST.tmp (a
   save that died before its rename) changes nothing a reopen sees. *)
let rec tmp_files p =
  if Sys.is_directory p then
    List.concat_map
      (fun f -> tmp_files (Filename.concat p f))
      (Array.to_list (Sys.readdir p))
  else if Filename.check_suffix p ".tmp" then [ p ]
  else []

let test_manifest_commit () =
  let (module M : Index.S) = Registry.find_exn "h2" in
  let rng = Workload.rng 77 in
  let ds =
    Workloads.dataset rng ~kind:Workloads.Uniform ~dim:2 ~n:300
      (module M : Index.S)
  in
  let qs = Workloads.queries rng ds ~fraction:0.1 ~count:4 in
  let sharded =
    Shard.make ~inner:(module M) ~shards:4 ~partition:Shard.Str ()
  in
  List.iter
    (fun (label, (module W : Index.S)) ->
      let stats = Emio.Io_stats.create () in
      let t = W.build ~params:build_params ~stats ds in
      let path = temp_dir () in
      W.snapshot.Index.save t ~path ~meta ~page_size:None;
      Alcotest.(check (list string))
        (label ^ ": no temp file left") [] (tmp_files path);
      let observe () =
        match Snapshot_path.open_ ~stats:(Emio.Io_stats.create ()) path with
        | Error m -> Alcotest.failf "%s: reopen failed: %s" label m
        | Ok (inst, info, _) -> (info, List.map (Index.query_count inst) qs)
      in
      let clean = observe () in
      Out_channel.with_open_bin (Filename.concat path "MANIFEST.tmp") (fun oc ->
          output_string oc "half-written manifest");
      Alcotest.(check bool)
        (label ^ ": stale MANIFEST.tmp ignored") true (observe () = clean))
    [
      ("shard", sharded);
      ("lsm", Lsm.make ~memtable_cap:16 ~inner:(module M) ());
      ("lsm over shard", Lsm.make ~memtable_cap:16 ~inner:sharded ());
    ]

(* ---- the directory loader shared with Shard ---- *)

let test_wrong_inner_kind () =
  let path = build_saved_h2 () in
  (* the MANIFEST's inner kind is checked before any part is read:
     with the parts gone, only that check can answer *)
  Array.iter
    (fun f ->
      if not (String.equal f "MANIFEST") then
        Sys.remove (Filename.concat path f))
    (Sys.readdir path);
  let (module P : Index.S) = Registry.find_exn "ptree" in
  let (module H : Index.S) = Registry.find_exn "h2" in
  let (module L : Index.S) = Lsm.make ~memtable_cap:16 ~inner:(module P) () in
  match
    L.snapshot.Index.load ~stats:(Emio.Io_stats.create ())
      ~policy:Diskstore.Buffer_pool.Lru ~cache_pages:64 path
  with
  | Ok _ -> Alcotest.fail "an Lsm(h2) directory loaded as Lsm(ptree)"
  | Error e ->
      Alcotest.(check bool)
        (Diskstore.Snapshot.error_to_string e)
        true
        (e
        = Diskstore.Snapshot.Kind_mismatch
            {
              expected = P.snapshot.Index.snapshot_kind;
              got = H.snapshot.Index.snapshot_kind;
            })

(* Saving over a regular file is refused before anything is written. *)
let test_save_over_file () =
  let (module M : Index.S) = Registry.find_exn "h2" in
  let (module L : Index.S) = Lsm.make ~memtable_cap:16 ~inner:(module M) () in
  let t =
    L.build ~params:build_params ~stats:(Emio.Io_stats.create ())
      (Index.Pts2 [||])
  in
  let path = temp_dir () in
  Out_channel.with_open_bin path (fun oc -> output_string oc "a file");
  (match save_lsm (module L) t path with
  | () -> Alcotest.fail "saved over a regular file"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "still a regular file" false (Sys.is_directory path)

(* A reopened directory charges its queries to the sink it was opened
   with: the ambient delta over the queries equals the sum of their
   Cost_ctx reads and writes. *)
let test_reopened_accounting () =
  let path = build_saved_h2 () in
  let qs =
    List.map
      (fun a0 -> { Index.a0; a = [| 0.25 |] })
      [ -20.; 0.; 20.; 40. ]
  in
  let stats = Emio.Io_stats.create () in
  match Lsm.open_snapshot ~stats path with
  | Error e ->
      Alcotest.failf "reopen failed: %s" (Diskstore.Snapshot.error_to_string e)
  | Ok (inst, _, _) ->
      let before = Emio.Io_stats.total stats in
      let scoped =
        List.fold_left
          (fun acc q ->
            let c = Emio.Cost_ctx.create () in
            ignore
              (Emio.Cost_ctx.with_ctx c (fun () -> Index.query_count inst q)
                : int);
            acc + Emio.Cost_ctx.reads c + Emio.Cost_ctx.writes c)
          0 qs
      in
      Alcotest.(check bool) "queries read blocks" true (scoped > 0);
      Alcotest.(check int) "ambient delta = Cost_ctx sum" scoped
        (Emio.Io_stats.total stats - before)

(* The pool splits over the levels, and a disabled pool stays
   disabled: repeated queries never hit with 0 pages, and do with 64. *)
let test_pool_split () =
  let path = build_saved_h2 () in
  let qs =
    List.map
      (fun a0 -> { Index.a0; a = [| 0.25 |] })
      [ -20.; 0.; 20.; 40. ]
  in
  let hits cache_pages =
    let stats = Emio.Io_stats.create () in
    match Lsm.open_snapshot ~cache_pages ~stats path with
    | Error e ->
        Alcotest.failf "reopen failed: %s"
          (Diskstore.Snapshot.error_to_string e)
    | Ok (inst, _, _) ->
        Emio.Io_stats.reset stats;
        for _ = 1 to 3 do
          List.iter (fun q -> ignore (Index.query_count inst q : int)) qs
        done;
        Emio.Io_stats.cache_hits stats
  in
  Alcotest.(check int) "no hits without a pool" 0 (hits 0);
  Alcotest.(check bool) "hits with 64 pages" true (hits 64 > 0)

(* With no level to read sizes from, the reopened info falls back to
   the block size recorded in the manifest's build parameters. *)
let test_memtable_only () =
  let (module M : Index.S) = Registry.find_exn "h2" in
  let (module L : Index.S) = Lsm.make ~memtable_cap:16 ~inner:(module M) () in
  let params = { build_params with Index.block_size = 32 } in
  let t = L.build ~params ~stats:(Emio.Io_stats.create ()) (Index.Pts2 [||]) in
  let u = Option.get L.update in
  List.iter
    (fun row -> ignore (u.Index.insert t row : int))
    [ [| 1.; 2. |]; [| 3.; 4. |]; [| 5.; 6. |] ];
  let path = temp_dir () in
  save_lsm (module L) t path;
  match Lsm.open_snapshot ~stats:(Emio.Io_stats.create ()) path with
  | Error e ->
      Alcotest.failf "reopen failed: %s" (Diskstore.Snapshot.error_to_string e)
  | Ok (inst, info, m) ->
      Alcotest.(check int) "no levels" 0 (Array.length m.Lsm.levels);
      Alcotest.(check int) "block size from params" 32
        info.Diskstore.Snapshot.block_size;
      Alcotest.(check int) "no blocks" 0 info.Diskstore.Snapshot.n_blocks;
      Alcotest.(check int) "no pages" 0 info.Diskstore.Snapshot.total_pages;
      Alcotest.(check int) "memtable answers" 3
        (Index.query_count inst { Index.a0 = 100.; a = [| 0. |] })

(* ---- composition: Lsm over the sharded wrapper ---- *)

let test_over_shard () =
  let (module M : Index.S) = Registry.find_exn "h2" in
  let rng = Workload.rng 4321 in
  let ds =
    Workloads.dataset rng ~kind:Workloads.Uniform ~dim:2 ~n:300
      (module M : Index.S)
  in
  let pool =
    Index.rows_of_dataset
      (Workloads.dataset rng ~kind:Workloads.Uniform ~dim:2 ~n:80
         (module M : Index.S))
  in
  let qs = Workloads.queries rng ds ~fraction:0.05 ~count:4 in
  let (module Sh : Index.S) =
    Shard.make ~inner:(module M) ~shards:4 ~partition:Shard.Str ()
  in
  let (module L : Index.S) =
    Lsm.make ~memtable_cap:32 ~inner:(module Sh) ()
  in
  let t = L.build ~params:build_params ~stats:(Emio.Io_stats.create ()) ds in
  let base = Index.rows_of_dataset ds in
  let model =
    apply_churn (module L) t ~pool
      (List.concat (List.init 60 (fun i -> [ `Ins i; `Del 0 ])))
  in
  let live = Array.of_list (model_rows base model) in
  let oracle =
    M.build ~params:build_params ~stats:(Emio.Io_stats.create ())
      (Index.dataset_of_rows (module M) ~dim:2 live)
  in
  List.iteri
    (fun i q ->
      Alcotest.(check bool)
        (Printf.sprintf "lsm-over-shard q%d rows" i)
        true
        (sorted_rows (L.query t q) = sorted_rows (M.query oracle q)))
    qs;
  (* durable composition: levels are sharded directories *)
  let path = temp_dir () in
  save_lsm (module L) t path;
  match Lsm.open_snapshot ~stats:(Emio.Io_stats.create ()) path with
  | Error e ->
      Alcotest.failf "lsm-over-shard reopen failed: %s"
        (Diskstore.Snapshot.error_to_string e)
  | Ok (inst, _, _) ->
      List.iter
        (fun q ->
          Alcotest.(check int) "lsm-over-shard reopened count"
            (L.query_count t q)
            (Index.query_count inst q))
        qs

let conformance_tests =
  List.concat_map
    (fun (inner, dim) ->
      List.concat_map
        (fun (ilv, _) ->
          List.concat_map
            (fun domains ->
              List.map
                (fun kind ->
                  Alcotest.test_case
                    (Printf.sprintf "%s d=%d %s %s domains=%d" inner dim
                       (Workloads.kind_name kind) ilv domains)
                    `Quick
                    (conformance_case ~inner ~dim ~kind ~domains
                       ~interleaving:ilv))
                [ Workloads.Uniform; Workloads.Clusters ])
            [ 1; 2; 4 ])
        interleavings)
    [ ("h2", 2); ("ptree", 2); ("h3", 3); ("cert", 3) ]

let () =
  Alcotest.run "lsm"
    [
      ("conformance", conformance_tests);
      ( "shape",
        [
          Alcotest.test_case "binary-counter level invariant" `Quick
            test_level_invariant;
          Alcotest.test_case "deterministic accounting" `Quick
            test_cost_determinism;
          Alcotest.test_case "lsm over shard" `Quick test_over_shard;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "roundtrip h2" `Quick (test_roundtrip ~inner:"h2" ~dim:2);
          Alcotest.test_case "roundtrip ptree" `Quick
            (test_roundtrip ~inner:"ptree" ~dim:2);
          Alcotest.test_case "roundtrip h3" `Quick
            (test_roundtrip ~inner:"h3" ~dim:3);
          Alcotest.test_case "corrupted manifest" `Quick test_corrupted_manifest;
          Alcotest.test_case "truncated manifest" `Quick test_truncated_manifest;
          Alcotest.test_case "impossible ids" `Quick test_impossible_ids;
          Alcotest.test_case "corrupted level file" `Quick
            test_corrupted_level_file;
          Alcotest.test_case "missing level file" `Quick test_missing_level_file;
          Alcotest.test_case "non-lsm paths" `Quick test_not_lsm_paths;
          Alcotest.test_case "manifest commit" `Quick test_manifest_commit;
          Alcotest.test_case "wrong inner kind" `Quick test_wrong_inner_kind;
          Alcotest.test_case "pool split" `Quick test_pool_split;
          Alcotest.test_case "reopened queries charge the caller" `Quick
            test_reopened_accounting;
          Alcotest.test_case "save over a regular file" `Quick
            test_save_over_file;
          Alcotest.test_case "memtable only" `Quick test_memtable_only;
        ] );
    ]

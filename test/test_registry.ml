(* Registry integrity, the error convention of Index.S.build, and the
   conformance suite: every registered structure must report exactly
   the points the linear-scan oracle reports, over every workload kind
   and every dimension it supports — both in memory and again after a
   snapshot save / fresh reopen — and, at dims 2 and 3, every answer
   size from empty to full. *)

module Index = Lcsearch_index.Index
module Registry = Lcsearch_index.Registry
module Workloads = Lcsearch_index.Workloads
module Shard = Lcsearch_index.Shard

let contains s sub =
  let ls = String.length s and lsub = String.length sub in
  let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
  go 0

let table1_order =
  [
    "h2";
    "h3";
    "shallow";
    "tradeoff";
    "ptree";
    "cert";
    "rtree";
    "rtree-hilbert";
    "quadtree";
    "gridfile";
    "scan";
  ]

let test_names () =
  Alcotest.(check (list string))
    "registration order" table1_order (Registry.names ())

let test_find () =
  List.iter
    (fun name ->
      let (module M : Index.S) = Registry.find_exn name in
      Alcotest.(check string) "find_exn returns the named module" name M.name;
      match Registry.find name with
      | Some (module M' : Index.S) ->
          Alcotest.(check string) "find agrees" name M'.name
      | None -> Alcotest.failf "find %S returned None" name)
    table1_order;
  Alcotest.(check bool) "unknown name" true (Registry.find "btree" = None);
  match Registry.find_exn "btree" with
  | _ -> Alcotest.fail "find_exn on unknown name must raise"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        "error lists known structures" true
        (List.for_all (fun n -> contains msg n) [ "h2"; "scan" ])

let test_duplicate_register () =
  match Registry.register (List.hd (Registry.all ())) with
  | () -> Alcotest.fail "duplicate register must raise"
  | exception Invalid_argument _ -> ()

let test_for_dim () =
  let names_for d = List.map (fun (module M : Index.S) -> M.name)
      (Registry.for_dim d)
  in
  Alcotest.(check bool) "h2 is 2-d only" true
    (List.mem "h2" (names_for 2) && not (List.mem "h2" (names_for 3)));
  Alcotest.(check bool) "h3 is 3-d only" true
    (List.mem "h3" (names_for 3) && not (List.mem "h3" (names_for 2)));
  Alcotest.(check (list string))
    "4-d support" [ "ptree"; "scan"; "shallow" ]
    (List.sort compare (names_for 4))

let test_snapshot_kinds () =
  let owner kind =
    Option.map
      (fun (module M : Index.S) -> M.name)
      (Result.to_option (Registry.find_by_snapshot_kind kind))
  in
  Alcotest.(check (option string)) "h2 kind" (Some "h2") (owner "lcsearch.h2");
  Alcotest.(check (option string))
    "rtree kind" (Some "rtree") (owner "lcsearch.rtree");
  Alcotest.(check (option string))
    "scan kind" (Some "scan") (owner "lcsearch.scan");
  Alcotest.(check (option string)) "unknown kind" None (owner "lcsearch.nope")

(* ---- error convention: malformed build parameters raise
   Invalid_argument (never Failure) with a "name.build:" prefix ---- *)

let expect_invalid_arg ?(entry = ".build:") label f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument, got a value" label
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S names %s" label msg entry)
        true (contains msg entry)
  | exception Failure msg ->
      Alcotest.failf "%s: raised Failure %S (reserved for I/O damage)" label
        msg

let small_pts2 = Workload.uniform2 (Workload.rng 21) ~n:64 ~range:100.
let small_pts3 = Workload.uniform3 (Workload.rng 22) ~n:64 ~range:50.

let build name ds =
  Index.build (Registry.find_exn name) ~params:Index.default_params
    ~stats:(Emio.Io_stats.create ()) ds

let small_dataset (module M : Index.S) =
  match M.preferred ~dim:(List.hd M.dims) with
  | `Pts3 -> Index.Pts3 small_pts3
  | _ -> Index.Pts2 small_pts2

(* B < 1 and M < 0 are rejected up front by every structure and by
   both wrappers (an Lsm over an empty dataset included, whose first
   inner build would otherwise wait for the first spill). *)
let test_error_convention () =
  let bad =
    [
      ("block_size 0", { Index.default_params with block_size = 0 });
      ("block_size -1", { Index.default_params with block_size = -1 });
      ("cache_blocks -1", { Index.default_params with cache_blocks = -1 });
    ]
  in
  let h2 = Registry.find_exn "h2" in
  let wrappers =
    [
      ( "sharded h2",
        Shard.make ~inner:h2 ~shards:2 ~partition:Shard.Str (),
        Index.Pts2 small_pts2 );
      ("lsm h2", Lcsearch_index.Lsm.make ~inner:h2 (), Index.Pts2 small_pts2);
      ("lsm h2, empty", Lcsearch_index.Lsm.make ~inner:h2 (), Index.Pts2 [||]);
    ]
  in
  List.iter
    (fun (label, (module M : Index.S), ds) ->
      List.iter
        (fun (what, params) ->
          expect_invalid_arg ~entry:(M.name ^ ".build:")
            (Printf.sprintf "%s %s" label what)
            (fun () -> M.build ~params ~stats:(Emio.Io_stats.create ()) ds))
        bad)
    (List.map
       (fun (module M : Index.S) ->
         (M.name, (module M : Index.S), small_dataset (module M)))
       (Registry.all ())
    @ wrappers);
  expect_invalid_arg "h2 rejects a 3-d dataset" (fun () ->
      build "h2" (Index.Pts3 small_pts3));
  expect_invalid_arg "h3 rejects a 2-d dataset" (fun () ->
      build "h3" (Index.Pts2 small_pts2))

let temp_snapshot () =
  let path = Filename.temp_file "lcsearch_registry" ".snapshot" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let sorted_rows rows =
  List.sort compare (List.map Array.to_list rows)

(* the d-dimensional scan arm shares kind "lcsearch.scan" with the 2-d
   one; saving and reloading must bring back the right variant *)
let test_scan_d_snapshot_roundtrip () =
  let ds =
    Index.PtsD (Workload.uniform_d (Workload.rng 23) ~n:64 ~dim:3 ~range:50.)
  in
  let (module M : Index.S) = Registry.find_exn "scan" in
  let t =
    M.build ~params:Index.default_params ~stats:(Emio.Io_stats.create ()) ds
  in
  let ops = M.snapshot in
  let path = temp_snapshot () in
  ops.Index.save t ~path ~meta:"" ~page_size:None;
  match
    ops.Index.load
      ~stats:(Emio.Io_stats.create ())
      ~policy:Diskstore.Buffer_pool.Lru ~cache_pages:4 path
  with
  | Error e ->
      Alcotest.failf "d-dim scan reload failed: %s"
        (Diskstore.Snapshot.error_to_string e)
  | Ok (loaded, info) ->
      Alcotest.(check string)
        "kind" ops.Index.snapshot_kind info.Diskstore.Snapshot.kind;
      let q = { Index.a0 = 10.; a = [| 0.5; -0.25 |] } in
      Alcotest.(check bool)
        "reopened d-scan = in-memory" true
        (sorted_rows (M.query loaded q) = sorted_rows (M.query t q))

(* ---- conformance: every structure vs the linear-scan oracle,
   in memory and again after a snapshot save / reopen ---- *)

let conformance_case ~kind (module M : Index.S) ~dim () =
  let n = 512 and q_count = 6 in
  let rng = Workload.rng (1000 + (17 * dim) + Hashtbl.hash M.name mod 97) in
  let ds = Workloads.dataset rng ~kind ~dim ~n (module M : Index.S) in
  let qs = Workloads.queries rng ds ~fraction:0.05 ~count:q_count in
  let stats = Emio.Io_stats.create () in
  let t = M.build ~params:Index.default_params ~stats ds in
  let (module Oracle : Index.S) = Registry.find_exn "scan" in
  let oracle = Oracle.build ~params:Index.default_params ~stats ds in
  let rows = Index.rows_of_dataset ds in
  (* query_into appends query_count distinct build-time ids whose rows
     are query's rows *)
  let check_ids ~stage t i q =
    let label what =
      Printf.sprintf "%s d=%d %s query %d (%s): %s" M.name dim
        (Workloads.kind_name kind) i stage what
    in
    let r = Emio.Reporter.create () in
    let c = M.query_into t q r in
    let ids = Emio.Reporter.to_array r in
    Alcotest.(check int)
      (label "query_into = query_count")
      (M.query_count t q) c;
    Alcotest.(check int) (label "one id per answer") c (Array.length ids);
    let distinct = List.sort_uniq Int.compare (Array.to_list ids) in
    Alcotest.(check int) (label "distinct ids") c (List.length distinct);
    Alcotest.(check bool)
      (label "ids in [0, n)") true
      (List.for_all (fun id -> id >= 0 && id < n) distinct);
    Alcotest.(check bool)
      (label "id rows = query rows") true
      (sorted_rows (List.map (fun id -> rows.(id)) distinct)
      = sorted_rows (M.query t q))
  in
  List.iteri
    (fun i q ->
      check_ids ~stage:"built" t i q;
      let got = sorted_rows (M.query t q) in
      let want = sorted_rows (Oracle.query oracle q) in
      Alcotest.(check int)
        (Printf.sprintf "%s d=%d %s query %d: result count" M.name dim
           (Workloads.kind_name kind) i)
        (List.length want) (List.length got);
      Alcotest.(check bool)
        (Printf.sprintf "%s d=%d %s query %d: identical rows" M.name dim
           (Workloads.kind_name kind) i)
        true (got = want);
      Alcotest.(check int)
        (Printf.sprintf "%s d=%d %s query %d: query_count agrees" M.name dim
           (Workloads.kind_name kind) i)
        (List.length got) (M.query_count t q))
    qs;
  let ops = M.snapshot in
  let path = temp_snapshot () in
  ops.Index.save t ~path ~meta:"" ~page_size:None;
  (match
     ops.Index.load
       ~stats:(Emio.Io_stats.create ())
       ~policy:Diskstore.Buffer_pool.Lru ~cache_pages:8 path
   with
  | Error e ->
      Alcotest.failf "%s d=%d %s: snapshot reload failed: %s" M.name dim
        (Workloads.kind_name kind)
        (Diskstore.Snapshot.error_to_string e)
  | Ok (reopened, _) ->
      List.iteri
        (fun i q ->
          check_ids ~stage:"reopened" reopened i q;
          Alcotest.(check bool)
            (Printf.sprintf "%s d=%d %s query %d: reopened rows" M.name
               dim (Workloads.kind_name kind) i)
            true
            (sorted_rows (M.query reopened q)
            = sorted_rows (Oracle.query oracle q)))
        qs)

let conformance_tests =
  List.concat_map
    (fun (module M : Index.S) ->
      List.concat_map
        (fun dim ->
          List.map
            (fun kind ->
              Alcotest.test_case
                (Printf.sprintf "%s d=%d %s" M.name dim
                   (Workloads.kind_name kind))
                `Quick
                (conformance_case ~kind (module M : Index.S) ~dim))
            [ Workloads.Uniform; Workloads.Clusters; Workloads.Diagonal ])
        M.dims)
    (Registry.all ())

(* ---- selectivity: the conformance queries all select ~5%; these
   sweep from empty to full answers, against a brute-force filter of
   the dataset's rows (so scan is checked too) ---- *)

(* [row] satisfies [q] when x_d <= a0 + sum_i a_i x_i. *)
let satisfies (q : Index.query) row =
  let d = Array.length row in
  let rhs = ref q.a0 in
  Array.iteri (fun i a -> rhs := !rhs +. (a *. row.(i))) q.a;
  row.(d - 1) <= !rhs

(* Random queries with coefficients inside the builders' clip box and
   intercepts spanning well past the coordinate ranges, so many answers
   are empty or full, plus flat and steep queries that hold for no
   point and for every point. *)
let sweep_queries rng ~dim =
  let flat a0 = { Index.a0; a = Array.make (dim - 1) 0. } in
  let steep a0 =
    { Index.a0; a = Array.make (dim - 1) Workloads.coeff_clamp }
  in
  let random () =
    let a0 = Random.State.float rng 1000. -. 500. in
    let a =
      Array.init (dim - 1) (fun _ ->
          Random.State.float rng (2. *. Workloads.coeff_clamp)
          -. Workloads.coeff_clamp)
    in
    { Index.a0; a }
  in
  [ flat (-1e4); flat 1e4; steep (-1e4); steep 1e4 ]
  @ List.init 40 (fun _ -> random ())

let selectivity_case (module M : Index.S) ~dim () =
  let n = 128 in
  let rng = Workload.rng (77 + dim + (Hashtbl.hash M.name mod 53)) in
  let ds = Workloads.dataset rng ~kind:Workloads.Uniform ~dim ~n (module M) in
  let t =
    M.build ~params:Index.default_params ~stats:(Emio.Io_stats.create ()) ds
  in
  let rows = Index.rows_of_dataset ds in
  let sizes =
    List.mapi
      (fun i q ->
        let label what =
          Printf.sprintf "%s d=%d query %d: %s" M.name dim i what
        in
        let want =
          sorted_rows (List.filter (satisfies q) (Array.to_list rows))
        in
        Alcotest.(check bool)
          (label "rows = brute force") true
          (sorted_rows (M.query t q) = want);
        Alcotest.(check int)
          (label "query_count") (List.length want) (M.query_count t q);
        let r = Emio.Reporter.create () in
        let c = M.query_into t q r in
        let ids = List.sort_uniq Int.compare (Emio.Reporter.to_list r) in
        Alcotest.(check int) (label "query_into count") (List.length want) c;
        Alcotest.(check bool)
          (label "id rows = brute force") true
          (List.length ids = c
          && List.for_all (fun id -> id >= 0 && id < n) ids
          && sorted_rows (List.map (fun id -> rows.(id)) ids) = want);
        List.length want)
      (sweep_queries rng ~dim)
  in
  (match sizes with
  | none :: all :: steep_none :: steep_all :: _ ->
      Alcotest.(check (list int))
        "flat and steep extremes" [ 0; n; 0; n ]
        [ none; all; steep_none; steep_all ]
  | _ -> assert false);
  Alcotest.(check bool)
    "some random answer is neither empty nor full" true
    (List.exists (fun k -> k > 0 && k < n) sizes)

let selectivity_tests =
  List.concat_map
    (fun (module M : Index.S) ->
      List.filter_map
        (fun dim ->
          if not (List.mem dim M.dims) then None
          else
            Some
              (Alcotest.test_case
                 (Printf.sprintf "%s d=%d empty to full" M.name dim)
                 `Quick
                 (selectivity_case (module M : Index.S) ~dim)))
        [ 2; 3 ])
    (Registry.all ())
  @ List.map
      (fun (inner, dim) ->
        let (module Sh : Index.S) =
          Shard.make ~inner:(Registry.find_exn inner) ~shards:4
            ~partition:Shard.Str ()
        in
        Alcotest.test_case
          (Printf.sprintf "%s sharded d=%d empty to full" inner dim)
          `Quick
          (selectivity_case (module Sh : Index.S) ~dim))
      [ ("h2", 2); ("ptree", 3) ]

let () =
  Alcotest.run "registry"
    [
      ( "registry",
        [
          Alcotest.test_case "names in Table-1 order" `Quick test_names;
          Alcotest.test_case "find / find_exn" `Quick test_find;
          Alcotest.test_case "duplicate register" `Quick
            test_duplicate_register;
          Alcotest.test_case "for_dim" `Quick test_for_dim;
          Alcotest.test_case "snapshot kinds" `Quick test_snapshot_kinds;
        ] );
      ( "errors",
        [
          Alcotest.test_case "Invalid_argument convention" `Quick
            test_error_convention;
          Alcotest.test_case "scan d-dim snapshot roundtrip" `Quick
            test_scan_d_snapshot_roundtrip;
        ] );
      ("conformance", conformance_tests);
      ("selectivity", selectivity_tests);
    ]

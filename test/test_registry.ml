(* Registry integrity, the error convention of Index.S.build, and the
   conformance suite: every registered structure must report exactly
   the points the linear-scan oracle reports, over every workload kind
   and every dimension it supports — both in memory and again after a
   snapshot save / fresh reopen. *)

module Index = Lcsearch_index.Index
module Registry = Lcsearch_index.Registry
module Workloads = Lcsearch_index.Workloads

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

let expect_invalid_arg label f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument, got a value" label
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (label ^ ": message names the build entry point")
        true (contains msg ".build:")
  | exception Failure msg ->
      Alcotest.failf "%s: raised Failure %S (reserved for I/O damage)" label
        msg

let small_pts2 = Workload.uniform2 (Workload.rng 21) ~n:64 ~range:100.
let small_pts3 = Workload.uniform3 (Workload.rng 22) ~n:64 ~range:50.

let build name ?(extra = []) ds =
  Index.build (Registry.find_exn name)
    ~params:{ Index.default_params with extra }
    ~stats:(Emio.Io_stats.create ()) ds

let test_error_convention () =
  expect_invalid_arg "unknown extra key" (fun () ->
      build "h2" ~extra:[ ("bogus", 1.) ] (Index.Pts2 small_pts2));
  expect_invalid_arg "tradeoff a <= 1" (fun () ->
      build "tradeoff" ~extra:[ ("a", 1.0) ] (Index.Pts3 small_pts3));
  expect_invalid_arg "quadtree max_depth < 1" (fun () ->
      build "quadtree" ~extra:[ ("max_depth", 0.) ] (Index.Pts2 small_pts2));
  expect_invalid_arg "cert cert_cap < 0" (fun () ->
      build "cert" ~extra:[ ("cert_cap", -1.) ] (Index.Pts3 small_pts3));
  expect_invalid_arg "shallow shallow_factor <= 0" (fun () ->
      build "shallow" ~extra:[ ("shallow_factor", 0.) ] (Index.Pts3 small_pts3));
  expect_invalid_arg "h2 rejects a 3-d dataset" (fun () ->
      build "h2" (Index.Pts3 small_pts3));
  expect_invalid_arg "h3 rejects a 2-d dataset" (fun () ->
      build "h3" (Index.Pts2 small_pts2));
  expect_invalid_arg "non-integral extra" (fun () ->
      build "quadtree" ~extra:[ ("max_depth", 2.5) ] (Index.Pts2 small_pts2))

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
  let ops = Option.get M.snapshot in
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
  List.iteri
    (fun i q ->
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
  match M.snapshot with
  | None -> ()
  | Some ops ->
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
    ]

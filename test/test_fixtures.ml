(* Golden snapshot fixtures.  test/fixtures/ holds snapshots written by
   an earlier lcsearch binary; every build must (a) reopen each one
   through Snapshot_path.open_ and answer the builder's replayed
   queries exactly like an in-memory rebuild — what `lcsearch query
   --check` does — and (b) rebuild every single-file and sharded
   fixture from its recorded meta and write the committed bytes again.
   A change to any structure's skeleton codec, payload layout, header
   or manifest format fails here, whichever binary wrote the files.

   The fixtures were written, from the repository root, by

     for s in h2 h3 shallow tradeoff ptree cert rtree rtree-hilbert \
              quadtree gridfile scan; do
       lcsearch build -s $s -n 128 --page-size 512 -o test/fixtures/$s.snap
     done
     lcsearch build -s h2 -n 128 --page-size 512 --shards 2 \
       -o test/fixtures/h2-sharded
     lcsearch build -s h2 -n 128 --page-size 512 --dynamic --memtable 16 \
       -o test/fixtures/h2-lsm
     lcsearch churn --ops 64 test/fixtures/h2-lsm

   The churn leaves tombstones in h2-lsm's levels, so its check runs
   through Lsm's censoring of dead ids.  A deliberate format change
   replaces the files by rerunning these commands.

   format1/h2.snap is an h2 snapshot of format version 1 (points in
   its entries, not build-time ids), written before h2 and the 2-d
   baselines moved to version 2; reopening it must fail with an error
   value, not an exception. *)

module Index = Lcsearch_index.Index
module Workloads = Lcsearch_index.Workloads
module Snapshot_path = Lcsearch_index.Snapshot_path
module Shard = Lcsearch_index.Shard
module Lsm = Lcsearch_index.Lsm

let fixture name = Filename.concat "fixtures" name

let kinds =
  [
    "h2"; "h3"; "shallow"; "tradeoff"; "ptree"; "cert"; "rtree";
    "rtree-hilbert"; "quadtree"; "gridfile"; "scan";
  ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let open_fixture path =
  match Snapshot_path.open_ ~stats:(Emio.Io_stats.create ()) path with
  | Ok r -> r
  | Error e -> Alcotest.failf "%s: %s" path e

let params (h : Snapshot_path.header) =
  { Index.default_params with block_size = h.meta.block_size }

(* (a) replayed queries against the reopened fixture and its oracle:
   the static rebuild-from-live for an Lsm directory, the in-memory
   (for a sharded directory, unsharded) rebuild otherwise *)
let reopen_case path () =
  let inst, _, h = open_fixture path in
  let rng, ds = Snapshot_path.replay h in
  let oracle =
    match h.layout with
    | Snapshot_path.Lsm m ->
        let live = Array.map snd (Lsm.manifest_live_rows m) in
        Index.build h.base ~params:m.Lsm.params
          ~stats:(Emio.Io_stats.create ())
          (Index.dataset_of_rows h.base ~dim:h.meta.dim live)
    | Snapshot_path.File _ | Snapshot_path.Sharded _ ->
        Index.build h.base ~params:(params h)
          ~stats:(Emio.Io_stats.create ())
          ds
  in
  let sorted q inst =
    List.sort compare (List.map Array.to_list (Index.query inst q))
  in
  let total = ref 0 in
  List.iteri
    (fun i q ->
      let want = sorted q oracle in
      total := !total + List.length want;
      Alcotest.(check (list (list (float 0.))))
        (Printf.sprintf "%s query %d" path i)
        want (sorted q inst);
      Alcotest.(check int)
        (Printf.sprintf "%s query %d: count" path i)
        (Index.query_count oracle q) (Index.query_count inst q))
    (Workloads.queries rng ds ~fraction:0.02 ~count:20);
  Alcotest.(check bool) (path ^ ": queries report points") true (!total > 0)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter
      (fun f -> remove_tree (Filename.concat path f))
      (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* (b) rebuild from the replayed meta, save at the fixture's page size,
   and compare every file byte for byte *)
let rewrite_case path () =
  let _, info, h = open_fixture path in
  let meta = Snapshot_path.meta_to_string h.meta in
  Alcotest.(check string) (path ^ ": meta re-encodes") info.meta meta;
  let (module M : Index.S) =
    match h.meta.shards with
    | None -> h.base
    | Some (shards, partition) -> Shard.make ~inner:h.base ~shards ~partition ()
  in
  let _, ds = Snapshot_path.replay h in
  let inst =
    Index.build (module M) ~params:(params h)
      ~stats:(Emio.Io_stats.create ())
      ds
  in
  let out = Filename.temp_file "lcsearch_fixture" ".snap" in
  Sys.remove out;
  Fun.protect ~finally:(fun () -> if Sys.file_exists out then remove_tree out)
  @@ fun () ->
  Index.snapshot_save inst ~path:out ~meta ~page_size:(Some info.page_size);
  let files p =
    if Sys.is_directory p then
      List.sort compare (Array.to_list (Sys.readdir p))
      |> List.map (fun f -> (f, Filename.concat p f))
    else [ ("", p) ]
  in
  let want = files path and got = files out in
  Alcotest.(check (list string))
    (path ^ ": same files") (List.map fst want) (List.map fst got);
  List.iter2
    (fun (name, w) (_, g) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s%s: bytes identical" path
           (if name = "" then "" else "/" ^ name))
        true
        (String.equal (read_file w) (read_file g)))
    want got

let old_format_case () =
  let path = fixture "format1/h2.snap" in
  match Snapshot_path.open_ ~stats:(Emio.Io_stats.create ()) path with
  | exception e -> Alcotest.failf "%s raised %s" path (Printexc.to_string e)
  | Ok _ -> Alcotest.failf "%s: a version-1 h2 snapshot reopened" path
  | Error msg ->
      let sub = "version 1" in
      let rec has i =
        i + String.length sub <= String.length msg
        && (String.sub msg i (String.length sub) = sub || has (i + 1))
      in
      Alcotest.(check bool) (path ^ ": " ^ msg) true (has 0)

let () =
  let files = List.map (fun k -> (k, fixture (k ^ ".snap"))) kinds in
  let sharded = ("h2 sharded", fixture "h2-sharded") in
  let lsm = ("h2 lsm after churn", fixture "h2-lsm") in
  let case f (label, path) = Alcotest.test_case label `Quick (f path) in
  Alcotest.run "fixtures"
    [
      ("reopen", List.map (case reopen_case) (files @ [ sharded; lsm ]));
      ("rewrite", List.map (case rewrite_case) (files @ [ sharded ]));
      ( "old formats",
        [ Alcotest.test_case "h2 format 1" `Quick old_format_case ] );
    ]

(* Experiment harness: regenerates every table and figure of the paper
   (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
   recorded results).

   Usage:
     dune exec bench/main.exe              # run everything
     dune exec bench/main.exe -- TABLE1 F2 # run selected experiments
     dune exec bench/main.exe -- --list    # list experiment ids *)

let experiments =
  [
    ("TABLE1", "Table 1, registry-generic + BENCH_TABLE1.json", Exp_table1.table1);
    ("F1", "Figure 1: duality", Exp_figures.figure1);
    ("F2", "Figure 2: k-levels", Exp_figures.figure2);
    ("F3", "Figure 3: clusters", Exp_figures.figure3);
    ("F4", "Figure 4: greedy clustering", Exp_figures.figure4);
    ("F5", "Figure 5: query walk", Exp_figures.figure5);
    ("F6", "Figure 6: simplicial partitions", Exp_figures.figure6);
    ("S1.2", "§1.2 heuristic degradation", Exp_extra.sec12);
    ("A1", "ablation: partitioners", Exp_extra.ablation_partitioner);
    ("A2", "ablation: independent copies", Exp_extra.ablation_copies);
    ("A3", "ablation: LRU cache", Exp_extra.ablation_cache);
    ("A4", "Theorem 4.2 k sweep", Exp_extra.ablation_klowest);
    ("A5", "Theorem 4.3 k-NN sweep", Exp_extra.ablation_knn);
    ("A6", "ablation: point locators", Exp_extra.ablation_locator);
    ("A7", "ablation: shallow threshold", Exp_extra.ablation_shallow_factor);
    ("EXT1", "extension: dynamized tree", Exp_extra.ext_dynamic);
    ("EXT2", "extension: segment intersection", Exp_extra.ext_segments);
    ("EXT3", "extension: disk reporting", Exp_extra.ext_disks);
    ("EXT4", "extension: certificate tree", Exp_extra.ext_cert_tree);
    ("SHARD", "sharded out-of-core sweep + BENCH_SHARD.json", Exp_shard.run);
    ("CHURN", "LSM dynamization overhead + BENCH_CHURN.json", Exp_churn.run);
    ("TIME", "bechamel wall-clock per row", Bench_time.run);
    ("BATCH", "batch throughput + BENCH_TIME.json", Bench_time.run_batch_throughput);
    ("PERSIST", "file-backed snapshot vs in-memory", Bench_time.run_persistence);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [ "--list" ] ->
      List.iter (fun (id, title, _) -> Printf.printf "%-6s %s\n" id title)
        experiments
  | [] ->
      Printf.printf
        "Reproducing 'Efficient Searching with Linear Constraints'\n\
         (Agarwal, Arge, Erickson, Franciosa, Vitter; PODS'98/JCSS'00)\n\
         block size B = 64 items; I/O counts from the emio simulator.\n";
      List.iter (fun (_, _, f) -> f ()) experiments
  | ids -> (
      let find id = List.find_opt (fun (i, _, _) -> i = id) experiments in
      match List.filter (fun id -> find id = None) ids with
      | [] ->
          List.iter (fun id -> Option.iter (fun (_, _, f) -> f ()) (find id)) ids
      | unknown ->
          List.iter
            (Printf.eprintf "unknown experiment %S (try --list)\n")
            unknown;
          exit 2)

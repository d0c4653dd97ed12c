(* lcbench: one run of one benchmark workload.

     lcbench --workload serve_zipf|static_mem|churn_disk --seed N
             --seconds S --trace 0|1 --lcsearch PATH --work DIR
             [--out FILE] [--commit C] [--nproc P]

   Each workload has a fixed dataset size; the benchmark's own test
   runs the same sizes the benchmark measures.

   Prints every metric it measured as "name = value unit", writes the
   full result (metrics, provenance facts, span log) to --out, and
   prints the run summary as its last line of JSON.  Exits 1 when any
   answer disagreed with its oracle. *)

(* The CPUs this process may run on (run.py pins it to one). *)
let cpus_allowed () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> "unknown"
  | ic ->
      let rec find () =
        match input_line ic with
        | line when String.starts_with ~prefix:"Cpus_allowed_list:" line ->
            String.trim (String.sub line 18 (String.length line - 18))
        | _ -> find ()
        | exception End_of_file -> "unknown"
      in
      let r = find () in
      close_in ic;
      r

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let lcsearch = ref "" and work = ref ".bench_work" in
  let out = ref "" and commit = ref "unknown" and nproc = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "serve_zipf | static_mem | churn_disk");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measurement budget");
      ("--trace", Arg.Set_int trace, "1 = traced run with per-layer metrics");
      ("--lcsearch", Arg.Set_string lcsearch, "the lcsearch binary (serve_zipf)");
      ("--work", Arg.Set_string work, "scratch directory for fixtures and saves");
      ("--out", Arg.Set_string out, "write the full result JSON here");
      ("--commit", Arg.Set_string commit, "source commit, for provenance");
      ("--nproc", Arg.Set_int nproc, "online CPUs, for provenance");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "lcbench --workload W --seed N --seconds S --trace 0|1";
  let trace = !trace = 1 and seconds = !seconds and seed = !seed in
  if seconds <= 0. then Kit.die "--seconds must be positive";
  List.iter
    (fun (k, v) -> Kit.fact k v)
    [
      ("workload", !workload);
      ("seed", string_of_int seed);
      ("seconds", Printf.sprintf "%g" seconds);
      ("trace", string_of_bool trace);
      ("commit", !commit);
      ("ocaml", Sys.ocaml_version);
      ("nproc", string_of_int !nproc);
      ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ()));
      ("cpus_allowed", cpus_allowed ());
    ];
  Kit.mkdir_p !work;
  (match !workload with
  | "serve_zipf" ->
      if !lcsearch = "" then Kit.die "serve_zipf needs --lcsearch";
      Serve_zipf.run ~lcsearch:!lcsearch ~work:!work ~seed ~seconds ~trace
  | "static_mem" -> Static_mem.run ~seed ~seconds ~trace
  | "churn_disk" -> Churn_disk.run ~work:!work ~seed ~seconds ~trace
  | w -> Kit.die "unknown workload %S" w);
  let metrics = List.rev !Kit.metrics in
  let facts = List.rev !Kit.facts in
  List.iter (fun (k, v) -> Printf.printf "# %s: %s\n" k v) facts;
  List.iter
    (fun m ->
      Printf.printf "%-36s = %.6g %s%s\n" m.Kit.name m.Kit.value m.Kit.unit_
        (if m.Kit.exact then "  (exact)" else ""))
    metrics;
  let c = Kit.counts in
  Printf.printf "%-36s = %.6g ratio  (%d of %d attempts; %d oracle mismatches)\n"
    "failed_frac"
    (float_of_int c.Kit.failed /. float_of_int (max 1 c.Kit.attempted))
    c.Kit.failed c.Kit.attempted !Kit.mismatches;
  let correct = !Kit.mismatches = 0 in
  let metric_json m =
    ( m.Kit.name,
      Kit.json_obj
        [
          ("value", Kit.json_float m.Kit.value);
          ("unit", Kit.json_string m.Kit.unit_);
          ("exact", string_of_bool m.Kit.exact);
        ] )
  in
  let summary =
    [
      ("correct", string_of_bool correct);
      ("attempted", string_of_int c.Kit.attempted);
      ("failed", string_of_int c.Kit.failed);
      ("metrics", Kit.json_obj (List.map metric_json metrics));
    ]
  in
  if !out <> "" then begin
    let origin = List.fold_left (fun acc s -> min acc s.Kit.t0) max_int !Kit.spans in
    let span_json s =
      Kit.json_obj
        [
          ("name", Kit.json_string s.Kit.sname);
          ("timed", string_of_bool (s.Kit.kind = Kit.Timed));
          ("t0_s", Kit.json_float (Kit.s_of_ns (s.Kit.t0 - origin)));
          ("t1_s", Kit.json_float (Kit.s_of_ns (s.Kit.t1 - origin)));
        ]
    in
    let oc = open_out !out in
    output_string oc
      (Kit.json_obj
         (summary
         @ [
             ("facts", Kit.json_obj (List.map (fun (k, v) -> (k, Kit.json_string v)) facts));
             ("spans", Kit.json_list (List.rev_map span_json !Kit.spans));
           ]));
    output_char oc '\n';
    close_out oc
  end;
  print_endline (Kit.json_obj summary);
  if not correct then exit 1

(* CHURN: what dynamization costs.  For each structure: build the
   static structure and its LSM-dynamized counterpart over the same
   N-point dataset, push a mixed insert/delete stream through the
   dynamized instance (spills, merges, tombstones), rebuild the static
   structure from the surviving live points, and compare model query
   I/Os over a shared query pool.

   The logarithmic method's bill is a level fan-out: a query asks
   every occupied level, so its I/O multiplies by at most the level
   count 1 + log2(N / memtable_cap) while the answer t splits across
   levels (§5 remark (iii); Nekrich's dynamic reporting pays the same
   shape).  The experiment gates io_factor — dynamized avg I/Os over
   rebuilt-static avg I/Os — against exactly that budget, and fails
   hard on overshoot or on any count mismatch with the
   rebuild-from-live oracle, so BENCH_CHURN.json doubles as a golden
   for the degradation factor.

   Environment knobs (all read by this experiment only):
     LCSEARCH_CHURN_S         comma-separated structures (default h2,ptree,h3)
     LCSEARCH_CHURN_N         dataset size              (default 8192)
     LCSEARCH_CHURN_OPS       churn operations          (default N/2)
     LCSEARCH_CHURN_MEMTABLE  memtable capacity         (default 64)
     LCSEARCH_CHURN_QUERIES   query-pool size           (default 32)
     LCSEARCH_CHURN_FRACTION  query selectivity         (default 0.02)
     LCSEARCH_CHURN_SLACK     budget multiplier         (default 1.0)
     LCSEARCH_CHURN_OUT       output path (default BENCH_CHURN.json) *)

module Index = Lcsearch_index.Index
module Registry = Lcsearch_index.Registry
module Workloads = Lcsearch_index.Workloads
module Lsm = Lcsearch_index.Lsm

let env_int key default =
  match Option.bind (Sys.getenv_opt key) int_of_string_opt with
  | Some v when v > 0 -> v
  | _ -> default

let env_float key default =
  match Option.bind (Sys.getenv_opt key) float_of_string_opt with
  | Some v when v > 0. -> v
  | _ -> default

let structure_names () =
  match Sys.getenv_opt "LCSEARCH_CHURN_S" with
  | Some s when s <> "" ->
      List.filter (fun n -> n <> "") (String.split_on_char ',' s)
  | _ -> [ "h2"; "ptree"; "h3" ]

let json_path () =
  match Sys.getenv_opt "LCSEARCH_CHURN_OUT" with
  | Some p when p <> "" -> p
  | _ -> "BENCH_CHURN.json"

let live_bbox ~dim rows =
  let lo = Array.make dim infinity and hi = Array.make dim neg_infinity in
  Array.iter
    (fun r ->
      for j = 0 to dim - 1 do
        if r.(j) < lo.(j) then lo.(j) <- r.(j);
        if r.(j) > hi.(j) then hi.(j) <- r.(j)
      done)
    rows;
  for j = 0 to dim - 1 do
    if not (lo.(j) <= hi.(j)) then begin
      lo.(j) <- 0.;
      hi.(j) <- 100.
    end
    else if hi.(j) -. lo.(j) < 1e-6 then hi.(j) <- lo.(j) +. 1e-6
  done;
  (lo, hi)

type row = {
  c_name : string;
  c_levels : int;
  c_live : int;
  c_merges : int;
  c_update_ios_per_op : float;
  c_static_io : float;
  c_lsm_io : float;
  c_factor : float;
  c_budget : float;
  c_avg_t : int;
  c_mismatches : int;
}

(* Average model I/Os per query through a fresh cost context; counts
   are returned alongside so the caller can gate lsm == oracle. *)
let measure_queries inst qs =
  let ctx = Emio.Cost_ctx.create () in
  let reads = ref 0 and counts = Array.make (Array.length qs) 0 in
  Array.iteri
    (fun i q ->
      Emio.Cost_ctx.reset ctx;
      counts.(i) <-
        Emio.Cost_ctx.with_ctx ctx (fun () -> Index.query_count inst q);
      reads := !reads + Emio.Cost_ctx.reads ctx)
    qs;
  (float_of_int !reads /. float_of_int (max 1 (Array.length qs)), counts)

let measure_one (module M : Index.S) ~n ~ops ~memtable_cap ~queries ~fraction
    ~slack ~seed =
  let dim = List.hd M.dims in
  let rng = Workload.rng (seed + n) in
  let ds = Workloads.dataset rng ~kind:Workloads.Uniform ~dim ~n (module M : Index.S) in
  let qs = Array.of_list (Workloads.queries rng ds ~fraction ~count:queries) in
  let base = Index.rows_of_dataset ds in
  (* The dynamized side: bulk build, then the churn stream (spills,
     merges, tombstones) against an exact (handle -> row) model. *)
  let (module L : Index.S) =
    Lsm.make ~memtable_cap ~inner:(module M : Index.S) ()
  in
  let stats = Emio.Io_stats.create () in
  let inst = Index.build (module L : Index.S) ~params:Index.default_params ~stats ds in
  let u = Option.get (Index.updater inst) in
  let build_ios = Emio.Io_stats.total stats in
  let model = Hashtbl.create (2 * n) in
  Array.iteri (fun h r -> Hashtbl.replace model h r) base;
  let vec = ref (Array.init n Fun.id) in
  let len = ref n in
  let lo, hi = live_bbox ~dim base in
  for _ = 1 to ops do
    if !len = 0 || Random.State.float rng 1. < 0.5 then begin
      let r = Array.make dim 0. in
      for j = 0 to dim - 1 do
        r.(j) <- lo.(j) +. Random.State.float rng (hi.(j) -. lo.(j))
      done;
      let h = u.Index.u_insert r in
      Hashtbl.replace model h r;
      if !len = Array.length !vec then begin
        let bigger = Array.make (2 * !len) 0 in
        Array.blit !vec 0 bigger 0 !len;
        vec := bigger
      end;
      !vec.(!len) <- h;
      incr len
    end
    else begin
      let i = Random.State.int rng !len in
      let h = !vec.(i) in
      if not (u.Index.u_delete h) then
        failwith (Printf.sprintf "%s: delete of live handle %d refused" M.name h);
      Hashtbl.remove model h;
      !vec.(i) <- !vec.(!len - 1);
      decr len
    end
  done;
  (* Spill/merge rebuilds charge the instance's stats sink (reads and
     writes both model I/Os); the delta over the churn is the
     amortized update cost. *)
  let update_ios = Emio.Io_stats.total stats - build_ios in
  let counters = Index.counters inst in
  let counter k = Option.value ~default:0 (List.assoc_opt k counters) in
  (* The static side, rebuilt from exactly the surviving points. *)
  let live_rows = Array.init !len (fun i -> Hashtbl.find model !vec.(i)) in
  let ods = Index.dataset_of_rows (module M : Index.S) ~dim live_rows in
  let rstats = Emio.Io_stats.create () in
  let oracle =
    Index.build (module M : Index.S) ~params:Index.default_params ~stats:rstats
      ods
  in
  let lsm_io, lsm_counts = measure_queries inst qs in
  let static_io, static_counts = measure_queries oracle qs in
  let mismatches = ref 0 in
  Array.iteri
    (fun i c -> if c <> static_counts.(i) then incr mismatches)
    lsm_counts;
  let budget =
    slack *. (1. +. (log (float_of_int n /. float_of_int memtable_cap) /. log 2.))
  in
  {
    c_name = M.name;
    c_levels = counter "levels";
    c_live = !len;
    c_merges = counter "merges";
    c_update_ios_per_op = float_of_int update_ios /. float_of_int (max 1 ops);
    c_static_io = static_io;
    c_lsm_io = lsm_io;
    c_factor = lsm_io /. Float.max 1. static_io;
    c_budget = budget;
    c_avg_t =
      Array.fold_left ( + ) 0 lsm_counts / max 1 (Array.length lsm_counts);
    c_mismatches = !mismatches;
  }

let json_of rows ~n ~ops ~memtable_cap ~queries ~fraction ~seed =
  let row r =
    Printf.sprintf
      "{\"structure\": \"%s\", \"levels\": %d, \"live\": %d, \"merges\": %d, \
       \"update_ios_per_op\": %.2f, \"static_io\": %.2f, \"lsm_io\": %.2f, \
       \"io_factor\": %.3f, \"io_budget\": %.3f, \"avg_t\": %d, \
       \"mismatches\": %d}"
      r.c_name r.c_levels r.c_live r.c_merges r.c_update_ios_per_op
      r.c_static_io r.c_lsm_io r.c_factor r.c_budget r.c_avg_t r.c_mismatches
  in
  String.concat ""
    [
      "{\n";
      Printf.sprintf "  \"n\": %d,\n" n;
      Printf.sprintf "  \"ops\": %d,\n" ops;
      Printf.sprintf "  \"memtable_cap\": %d,\n" memtable_cap;
      Printf.sprintf "  \"queries\": %d,\n" queries;
      Printf.sprintf "  \"fraction\": %g,\n" fraction;
      Printf.sprintf "  \"seed\": %d,\n" seed;
      "  \"rows\": [\n    ";
      String.concat ",\n    " (List.map row rows);
      "\n  ]\n}\n";
    ]

let run () =
  Util.section "CHURN"
    "dynamization overhead: churned LSM vs static rebuild over live points";
  let n = env_int "LCSEARCH_CHURN_N" 8192 in
  let ops = env_int "LCSEARCH_CHURN_OPS" (n / 2) in
  let memtable_cap = env_int "LCSEARCH_CHURN_MEMTABLE" Lsm.default_memtable_cap in
  let queries = env_int "LCSEARCH_CHURN_QUERIES" 32 in
  let fraction = env_float "LCSEARCH_CHURN_FRACTION" 0.02 in
  let slack = env_float "LCSEARCH_CHURN_SLACK" 1.0 in
  let seed = 7211 in
  Printf.printf
    "  N=%d, %d ops, memtable %d, %d queries at %.3f selectivity\n" n ops
    memtable_cap queries fraction;
  Printf.printf "  %-8s %7s %7s %7s %10s %10s %10s %9s %9s %7s\n" "name"
    "levels" "live" "merges" "upd IO/op" "static IO" "lsm IO" "factor"
    "budget" "avg t";
  let rows =
    List.map
      (fun name ->
        let (module M : Index.S) =
          match Registry.find name with
          | Some m -> m
          | None -> failwith (Printf.sprintf "unknown structure %S" name)
        in
        let r =
          measure_one
            (module M : Index.S)
            ~n ~ops ~memtable_cap ~queries ~fraction ~slack ~seed
        in
        Printf.printf
          "  %-8s %7d %7d %7d %10.2f %10.2f %10.2f %9.3f %9.3f %7d\n%!"
          r.c_name r.c_levels r.c_live r.c_merges r.c_update_ios_per_op
          r.c_static_io r.c_lsm_io r.c_factor r.c_budget r.c_avg_t;
        r)
      (structure_names ())
  in
  let path = json_path () in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (json_of rows ~n ~ops ~memtable_cap ~queries ~fraction ~seed));
  Printf.printf "\nwrote %d rows to %s\n" (List.length rows) path;
  let bad =
    List.filter (fun r -> r.c_mismatches > 0 || r.c_factor > r.c_budget) rows
  in
  if bad <> [] then
    failwith
      (String.concat "; "
         (List.map
            (fun r ->
              if r.c_mismatches > 0 then
                Printf.sprintf
                  "%s: %d query counts differ from the rebuild-from-live \
                   oracle"
                  r.c_name r.c_mismatches
              else
                Printf.sprintf
                  "%s: io_factor %.3f exceeds the log-level budget %.3f"
                  r.c_name r.c_factor r.c_budget)
            bad))

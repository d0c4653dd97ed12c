(* The registry-generic measurement harness behind the Table-1 bench,
   the CLI `sweep` command and the golden tests.

   Protocol (kept bit-identical to the legacy per-structure benches so
   historical numbers stay comparable): one rng seeded seed_base + n
   generates the dataset and then all query parameters eagerly; builds
   use the structure's defaults (3-d builders clipped to ±10); each
   query is charged in its own Cost_ctx and its read count recorded —
   the scoped equivalent of the old reset-stats-per-query loop. *)

(* Latency accounting for high-volume wall-clock measurements (serve,
   loadgen): a fixed-bucket log histogram.  Small exact I/O-count
   samples (q_reads below) stay on Query_engine.percentile — their
   nearest-rank values are pinned by the golden tests. *)
module Histogram = Histogram

type result = {
  name : string;
  kind : Workloads.kind;
  dim : int;
  n_points : int;
  build_ios : int;  (** reads + writes charged during build *)
  space : int;  (** blocks occupied *)
  q_count : int;
  q_reads : int list;  (** per-query charged reads, in execution order *)
  q_reads_total : int;
  q_results_total : int;  (** points reported, summed over queries *)
  counters : (string * int) list;
}

let q_reads_p50 r = Query_engine.percentile 0.5 r.q_reads
let q_reads_p95 r = Query_engine.percentile 0.95 r.q_reads

let measure ?(kind = Workloads.Uniform) ?(queries = 25) ?(fraction = 0.02)
    ?(params = Index.default_params) ?(seed_base = 100) ?(domains = 1)
    (module M : Index.S) ~dim ~n =
  let rng = Workload.rng (seed_base + n) in
  let ds = Workloads.dataset rng ~kind ~dim ~n (module M) in
  let qs = Workloads.queries rng ds ~fraction ~count:queries in
  let stats = Emio.Io_stats.create () in
  let bctx = Emio.Cost_ctx.create () in
  let inst =
    Emio.Cost_ctx.with_ctx bctx (fun () ->
        Index.build (module M : Index.S) ~params ~stats ds)
  in
  let costs = Query_engine.run_batch ~domains inst (Array.of_list qs) in
  let q_reads =
    Array.to_list (Array.map (fun c -> c.Query_engine.reads) costs)
  in
  {
    name = M.name;
    kind;
    dim;
    n_points = n;
    build_ios = Emio.Cost_ctx.total bctx;
    space = Index.space_blocks inst;
    q_count = queries;
    q_reads;
    q_reads_total = List.fold_left ( + ) 0 q_reads;
    q_results_total =
      Array.fold_left (fun acc c -> acc + c.Query_engine.result) 0 costs;
    counters = Index.counters inst;
  }

(* {2 Reporting} *)

let pp_row ppf r =
  Format.fprintf ppf
    "%-14s d=%d N=%-6d build=%-6d space=%-6d q_reads(total/p50/p95)=%d/%d/%d \
     results=%d"
    r.name r.dim r.n_points r.build_ios r.space r.q_reads_total
    (q_reads_p50 r) (q_reads_p95 r) r.q_results_total

(* Hand-rolled JSON (the repo deliberately has no JSON dependency). *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_of_result r =
  let counters =
    String.concat ", "
      (List.map
         (fun (k, v) -> Printf.sprintf "\"%s\": %d" (json_escape k) v)
         r.counters)
  in
  String.concat ""
    [
      "{";
      Printf.sprintf "\"structure\": \"%s\", " (json_escape r.name);
      Printf.sprintf "\"workload\": \"%s\", "
        (json_escape (Workloads.kind_name r.kind));
      Printf.sprintf "\"dim\": %d, " r.dim;
      Printf.sprintf "\"n_points\": %d, " r.n_points;
      Printf.sprintf "\"build_ios\": %d, " r.build_ios;
      Printf.sprintf "\"space_blocks\": %d, " r.space;
      Printf.sprintf "\"queries\": %d, " r.q_count;
      Printf.sprintf "\"query_reads_total\": %d, " r.q_reads_total;
      Printf.sprintf "\"query_reads_p50\": %d, " (q_reads_p50 r);
      Printf.sprintf "\"query_reads_p95\": %d, " (q_reads_p95 r);
      Printf.sprintf "\"results_total\": %d, " r.q_results_total;
      Printf.sprintf "\"counters\": {%s}" counters;
      "}";
    ]

let json_of_results rs =
  "[\n  " ^ String.concat ",\n  " (List.map json_of_result rs) ^ "\n]\n"

let write_json ~path rs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (json_of_results rs))

(* Shared measurement plumbing for the three workloads: a monotonic
   nanosecond clock, growable latency samples with interpolated
   quantiles, the metric table every workload fills, the span log
   that proves set-up work stays outside timed windows, and the
   hand-rolled JSON the runner prints (the repo has no JSON
   dependency). *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let s_of_ns ns = float_of_int ns /. 1e9

let time_ns f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* {2 Samples} *)

module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let length t = t.n
  let sum t = Array.fold_left ( + ) 0 (Array.sub t.a 0 t.n)

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Int.compare s;
    s
end

(* Quantile of a sorted sample with linear interpolation between order
   statistics (numpy's default), so a p50 of integer nanoseconds keeps
   its sub-unit digits. *)
let quantile_sorted (s : int array) p =
  let n = Array.length s in
  if n = 0 then invalid_arg "Kit.quantile_sorted: empty sample";
  let h = p *. float_of_int (n - 1) in
  let lo = int_of_float h in
  let hi = min (n - 1) (lo + 1) in
  let w = h -. float_of_int lo in
  (float_of_int s.(lo) *. (1. -. w)) +. (float_of_int s.(hi) *. w)

let quantile t p = quantile_sorted (Samples.sorted t) p

let median_float xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Kit.median_float: empty";
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* A mix of structures whose costs differ by orders of magnitude is
   summarized by the geometric mean of a per-structure figure: the
   median of pooled samples would sit in the gap between two
   structures' modes, where a small shift of counts moves it far, and a
   pooled mean would follow the slowest structure alone. *)
let geomean xs =
  exp (Array.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (Array.length xs))

let geomean_p50_us per = geomean (Array.map (fun s -> quantile s 0.5 /. 1e3) per)

(* The in-process workloads' gated p50: for each structure, the median
   over the query pool of each query's fastest call in the closed loop;
   the geometric mean of that over structures.  On the shared reference
   host the core's speed drifts by up to 1.6x in regimes lasting
   seconds (the process gets its full CPU time, so this is not steal),
   and across ten runs the p50 of all calls spread by 39% of its median.
   A query's fastest call moves with the code, like its typical call,
   but most runs catch some fast moments for every query: over the same
   eight runs the p50 of all calls ranged over 1.41x, this figure over
   1.10x.  [best.(s).(q)] holds the fastest call, in ns. *)
let best_p50_us best =
  geomean
    (Array.map
       (fun b ->
         let s = Array.copy b in
         Array.sort Int.compare s;
         quantile_sorted s 0.5 /. 1e3)
       best)

(* Queries per second of time spent in query calls. *)
let qps s = float_of_int (Samples.length s) /. s_of_ns (Samples.sum s)

(* Every workload indexes a fixed dataset drawn from this seed; the run
   seed draws the queries and the traffic.  With a seeded dataset the
   randomized 3-D structures' costs swing by up to 2x between seeds, so
   the spread across runs would measure the data, not the code. *)
let dataset_seed = 42

(* {2 Metrics} *)

type metric = {
  name : string;
  unit_ : string;
  value : float;
  exact : bool;  (** a deterministic count: repeats bit-for-bit per seed *)
}

let metrics : metric list ref = ref []

let emit ?(exact = false) name unit_ value =
  metrics := { name; unit_; value; exact } :: !metrics

(* {2 Spans}

   Every phase of a run is logged as a span.  [Timed] spans are the
   windows whose clock readings become metrics; [Untimed] spans are
   set-up work (query generation, fixture builds, oracles) that must
   never overlap a timed window — the benchmark's test checks this
   from the span log. *)

type span_kind = Timed | Untimed

type span = { sname : string; kind : span_kind; t0 : int; t1 : int }

let spans : span list ref = ref []

let span kind sname f =
  let t0 = now_ns () in
  let r = f () in
  spans := { sname; kind; t0; t1 = now_ns () } :: !spans;
  r

let timed name f = span Timed name f
let untimed name f = span Untimed name f

(* {2 Run context} *)

type counts = { mutable attempted : int; mutable failed : int }

let counts = { attempted = 0; failed = 0 }

let attempt ok =
  counts.attempted <- counts.attempted + 1;
  if not ok then counts.failed <- counts.failed + 1

let mismatches = ref 0

let mismatch fmt =
  Printf.ksprintf
    (fun msg ->
      incr mismatches;
      if !mismatches <= 10 then prerr_endline ("oracle mismatch: " ^ msg))
    fmt

(* Key/value provenance and layout facts, stamped into every result. *)
let facts : (string * string) list ref = ref []
let fact k v = facts := (k, v) :: List.remove_assoc k !facts

(* {2 JSON} *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let json_list items = "[" ^ String.concat ", " items ^ "]"

(* {2 Small helpers} *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let rec disk_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc f -> acc + disk_bytes (Filename.concat path f))
        0 (Sys.readdir path)
  | st -> st.Unix.st_size

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("lcbench: " ^ m); exit 2) fmt

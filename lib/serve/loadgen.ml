module Index = Lcsearch_index.Index
module Workloads = Lcsearch_index.Workloads
module Query_engine = Lcsearch_index.Query_engine
module Histogram = Lcsearch_index.Histogram

type mix = Uniform_mix | Zipf of float
type mode = Closed of int | Open of float

type config = {
  host : string;
  port : int;
  snapshots : string list;
  mode : mode;
  mix : mix;
  duration_s : float;
  warmup_s : float;
  pool : int;
  fraction : float;
  want_ids : bool;
  deadline_ms : int;
  check : bool;
  seed : int;
  writers : int;
  server_domains : int;
  verbose : bool;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7227;
    snapshots = [];
    mode = Closed 4;
    mix = Uniform_mix;
    duration_s = 10.;
    warmup_s = 1.;
    pool = 64;
    fraction = 0.02;
    want_ids = false;
    deadline_ms = 0;
    check = false;
    seed = 42;
    writers = 1;
    server_domains = 0;
    verbose = false;
  }

(* ---------- targets: replayed query pools + optional oracle ---------- *)

type expected = {
  e_count : int;
  e_reads : int;
  e_writes : int;
  e_hits : int;
  e_ids : int array option;  (* sorted; None for point-reporting structures *)
}

type target = {
  t_name : string;
  t_reports_ids : bool;
  t_queries : Index.query array;
  t_expected : expected array option;
}

let sorted_ids r =
  let a = Emio.Reporter.to_array r in
  Array.sort Int.compare a;
  a

(* The sequential golden oracle: reopen the same snapshot resident in
   this process and run every pool query once on the single-query
   engine path.  Resident reads make the cost words independent of
   cache state, so these numbers are exactly what the (resident)
   server must report for the same query — regardless of concurrency,
   batching, or arrival order. *)
let oracle_of path (module M : Index.S) queries =
  Diskstore.File_backend.set_resident_on_reopen true;
  let l =
    Fun.protect
      ~finally:(fun () -> Diskstore.File_backend.set_resident_on_reopen false)
      (fun () ->
        match Meta.load path with Ok l -> l | Error m -> failwith m)
  in
  let reporter = Query_engine.domain_reporter () in
  Array.map
    (fun q ->
      Emio.Reporter.clear reporter;
      let c = Query_engine.run_one ~reporter:reporter l.Meta.inst q in
      {
        e_count = c.Query_engine.result;
        e_reads = c.Query_engine.reads;
        e_writes = c.Query_engine.writes;
        e_hits = c.Query_engine.hits;
        e_ids = (if M.reports_ids then Some (sorted_ids reporter) else None);
      })
    queries

(* The pool is typed by the *base* structure: the wrappers share its
   name/dims, so the server-side lookup agrees. *)
let target_of cfg path =
  let h =
    match Lcsearch_index.Snapshot_path.read_header path with
    | Ok h -> h
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let (module M : Index.S) = h.base in
  let rng, ds = Lcsearch_index.Snapshot_path.replay h in
  let queries =
    Array.of_list (Workloads.queries rng ds ~fraction:cfg.fraction ~count:cfg.pool)
  in
  {
    t_name = M.name;
    t_reports_ids = M.reports_ids;
    t_queries = queries;
    t_expected = (if cfg.check then Some (oracle_of path (module M) queries) else None);
  }

(* ---------- item sampling: uniform or Zipf over (target, query) ---------- *)

let make_sampler mix ~n_items =
  match mix with
  | Uniform_mix -> fun rng -> Random.State.int rng n_items
  | Zipf s ->
      let cdf = Array.make n_items 0. in
      let acc = ref 0. in
      for i = 0 to n_items - 1 do
        acc := !acc +. (1. /. (float_of_int (i + 1) ** s));
        cdf.(i) <- !acc
      done;
      fun rng ->
        let u = Random.State.float rng cdf.(n_items - 1) in
        let lo = ref 0 and hi = ref (n_items - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if cdf.(mid) >= u then hi := mid else lo := mid + 1
        done;
        !lo

(* ---------- shared accounting ---------- *)

type agg = {
  m : Mutex.t;
  hists : Histogram.t array; (* per target, post-warmup client RTTs in ns *)
  reqs : int array; (* per target, whole run *)
  oks : int array;
  mutable sent : int;
  mutable ok : int;
  mutable ok_measured : int;
  mutable shed_full : int;
  mutable shed_deadline : int;
  mutable shed_drain : int;
  mutable errors : int;
  mutable mismatches : int;
}

let verify cfg (tgt : target) qidx ~count ~reads ~writes ~hits ~(ids : int array) =
  match tgt.t_expected with
  | None -> true
  | Some exp ->
      let e = exp.(qidx) in
      e.e_count = count && e.e_reads = reads && e.e_writes = writes
      && e.e_hits = hits
      &&
      match e.e_ids with
      | Some want when cfg.want_ids ->
          let got = Array.copy ids in
          Array.sort Int.compare got;
          got = want
      | _ -> true

let note_response cfg agg targets ~tidx ~qidx ~lat_ns ~measured msg =
  Mutex.lock agg.m;
  (match (msg : Protocol.msg) with
  | Protocol.Result r ->
      agg.ok <- agg.ok + 1;
      agg.oks.(tidx) <- agg.oks.(tidx) + 1;
      if measured then begin
        agg.ok_measured <- agg.ok_measured + 1;
        Histogram.record agg.hists.(tidx) lat_ns
      end;
      if
        not
          (verify cfg targets.(tidx) qidx ~count:r.count ~reads:r.reads
             ~writes:r.writes ~hits:r.hits ~ids:r.ids)
      then agg.mismatches <- agg.mismatches + 1
  | Protocol.Shed { reason = Protocol.Queue_full; _ } ->
      agg.shed_full <- agg.shed_full + 1
  | Protocol.Shed { reason = Protocol.Deadline_exceeded; _ } ->
      agg.shed_deadline <- agg.shed_deadline + 1
  | Protocol.Shed { reason = Protocol.Draining; _ } ->
      agg.shed_drain <- agg.shed_drain + 1
  | Protocol.Error _ | Protocol.Query _ | Protocol.Stats _
  | Protocol.Stats_query _ ->
      agg.errors <- agg.errors + 1);
  Mutex.unlock agg.m

let note_sent agg ~tidx =
  Mutex.lock agg.m;
  agg.sent <- agg.sent + 1;
  agg.reqs.(tidx) <- agg.reqs.(tidx) + 1;
  Mutex.unlock agg.m

let note_error agg =
  Mutex.lock agg.m;
  agg.errors <- agg.errors + 1;
  Mutex.unlock agg.m

(* ---------- the wire ---------- *)

let connect cfg =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.;
    Unix.connect fd
      (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
    fd
  with Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    failwith
      (Printf.sprintf "cannot connect to %s:%d: %s" cfg.host cfg.port
         (Unix.error_message e))

let query_msg cfg (tgt : target) qidx ~id =
  let q = tgt.t_queries.(qidx) in
  Protocol.Query
    {
      id;
      structure = tgt.t_name;
      want_ids = cfg.want_ids;
      deadline_ms = cfg.deadline_ms;
      a0 = q.Index.a0;
      a = q.Index.a;
    }

(* ---------- closed loop: one outstanding request per worker ---------- *)

let closed_worker cfg targets agg sample ~stop_at ~warmup_until widx =
  let fd = connect cfg in
  let rng = Workload.rng (cfg.seed + (7919 * (widx + 1))) in
  let nt = Array.length targets in
  let seq = ref 0 in
  (try
     while Unix.gettimeofday () < stop_at do
       let item = sample rng in
       let tidx = item mod nt and qidx = item / nt in
       let id = !seq land 0xffffffff in
       incr seq;
       note_sent agg ~tidx;
       let t0 = Unix.gettimeofday () in
       match Frame.write fd (query_msg cfg targets.(tidx) qidx ~id) with
       | Error _ -> raise Exit
       | Ok () -> (
           (* window = 1: the next frame answers this request *)
           match Frame.read fd with
           | Ok msg ->
               let lat_ns =
                 int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)
               in
               note_response cfg agg targets ~tidx ~qidx ~lat_ns
                 ~measured:(t0 >= warmup_until) msg
           | Error Frame.Timeout -> note_error agg
           | Error _ -> raise Exit)
     done
   with Exit -> note_error agg);
  try Unix.close fd with Unix.Unix_error _ -> ()

(* ---------- open loop: paced arrivals, matched by id ---------- *)

let msg_id = function
  | Protocol.Query q -> q.Protocol.id
  | Protocol.Result r -> r.id
  | Protocol.Shed s -> s.id
  | Protocol.Error e -> e.id
  | Protocol.Stats_query s -> s.id
  | Protocol.Stats s -> s.id

(* One open-loop writer: its own connection, its own paced arrival
   process at [qps], its own id-matched pending table.  The run spawns
   [cfg.writers] of these so the generator itself stops being the
   bottleneck — a single pacing thread tops out long before a
   multi-shard server does. *)
let open_writer cfg targets agg sample ~qps ~stop_at ~warmup_until widx =
  let fd = connect cfg in
  let nt = Array.length targets in
  let pending : (int, float * int * int) Hashtbl.t = Hashtbl.create 4096 in
  let plock = Mutex.create () in
  let writer_done = ref false in
  let reader =
    Thread.create
      (fun () ->
        let rec go () =
          let finished =
            Mutex.lock plock;
            let f = !writer_done && Hashtbl.length pending = 0 in
            Mutex.unlock plock;
            f
          in
          if not finished then
            match Frame.read fd with
            | Ok msg -> (
                let id = msg_id msg in
                Mutex.lock plock;
                let found = Hashtbl.find_opt pending id in
                if found <> None then Hashtbl.remove pending id;
                Mutex.unlock plock;
                match found with
                | None ->
                    note_error agg;
                    go ()
                | Some (t0, tidx, qidx) ->
                    let lat_ns =
                      int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)
                    in
                    note_response cfg agg targets ~tidx ~qidx ~lat_ns
                      ~measured:(t0 >= warmup_until) msg;
                    go ())
            | Error Frame.Timeout -> if not !writer_done then go ()
            | Error _ -> ()
        in
        go ())
      ()
  in
  let rng = Workload.rng (cfg.seed + (104729 * (widx + 1))) in
  let interval = 1. /. Float.max 1e-6 qps in
  let start = Unix.gettimeofday () in
  let seq = ref 0 in
  (try
     let rec go k =
       let due = start +. (float_of_int k *. interval) in
       let now = Unix.gettimeofday () in
       if due >= stop_at then ()
       else begin
         if due > now then Thread.delay (due -. now);
         let item = sample rng in
         let tidx = item mod nt and qidx = item / nt in
         let id = !seq land 0xffffffff in
         incr seq;
         note_sent agg ~tidx;
         Mutex.lock plock;
         Hashtbl.replace pending id (Unix.gettimeofday (), tidx, qidx);
         Mutex.unlock plock;
         match Frame.write fd (query_msg cfg targets.(tidx) qidx ~id) with
         | Error _ -> raise Exit
         | Ok () -> go (k + 1)
       end
     in
     go 0
   with Exit -> note_error agg);
  (* let in-flight responses land, then release the reader *)
  let grace = Unix.gettimeofday () +. 2. in
  let rec wait () =
    Mutex.lock plock;
    let n = Hashtbl.length pending in
    Mutex.unlock plock;
    if n > 0 && Unix.gettimeofday () < grace then begin
      Thread.delay 0.05;
      wait ()
    end
  in
  wait ();
  writer_done := true;
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Thread.join reader;
  try Unix.close fd with Unix.Unix_error _ -> ()

let open_loop cfg targets agg sample ~qps ~stop_at ~warmup_until =
  let writers = max 1 cfg.writers in
  let per_writer = qps /. float_of_int writers in
  let threads =
    List.init writers (fun widx ->
        Thread.create
          (fun () ->
            open_writer cfg targets agg sample ~qps:per_writer ~stop_at
              ~warmup_until widx)
          ())
  in
  List.iter Thread.join threads

(* ---------- server-side counters (Stats_query) ---------- *)

(* Fetched on a fresh connection after the run, so BENCH_SERVE.json
   carries the server's own dispatcher/coalescing story, not a copy of
   whatever flags the operator believed they passed.  None when the
   server predates the stats verb or is already gone. *)
let fetch_server_stats cfg =
  match connect cfg with
  | exception Failure _ -> None
  | fd ->
      let close () = try Unix.close fd with Unix.Unix_error _ -> () in
      Fun.protect ~finally:close (fun () ->
          match Frame.write fd (Protocol.Stats_query { id = 0 }) with
          | Error _ -> None
          | Ok () -> (
              match Frame.read fd with
              | Ok (Protocol.Stats { stats; _ }) -> Some stats
              | Ok _ | Error _ -> None))

(* ---------- the run ---------- *)

type structure_summary = {
  s_name : string;
  s_requests : int;
  s_ok : int;
  s_p50_us : float;
  s_p90_us : float;
  s_p99_us : float;
  s_p999_us : float;
  s_max_us : float;
  s_mean_us : float;
}

type summary = {
  mode_name : string;
  concurrency : int;
  target_qps : float;
  mix_name : string;
  measured_s : float;
  sent : int;
  ok : int;
  shed_full : int;
  shed_deadline : int;
  shed_drain : int;
  errors : int;
  mismatches : int;
  checked : bool;
  throughput_rps : float;
  server_domains : int;
  writers : int;
  server : Protocol.server_stats option;
  per_structure : structure_summary list;
}

let mix_name = function
  | Uniform_mix -> "uniform"
  | Zipf s -> Printf.sprintf "zipf-%.2f" s

let us ns = float_of_int ns /. 1000.

let structure_summary agg targets i =
  let h = agg.hists.(i) in
  let pct p = if Histogram.count h = 0 then 0. else us (Histogram.percentile h p) in
  {
    s_name = targets.(i).t_name;
    s_requests = agg.reqs.(i);
    s_ok = agg.oks.(i);
    s_p50_us = pct 0.5;
    s_p90_us = pct 0.9;
    s_p99_us = pct 0.99;
    s_p999_us = pct 0.999;
    s_max_us = us (Histogram.max_recorded h);
    s_mean_us = (if Histogram.count h = 0 then 0. else Histogram.mean h /. 1000.);
  }

let run cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if cfg.snapshots = [] then failwith "loadgen: no snapshots given";
  if cfg.pool <= 0 then failwith "loadgen: pool must be positive";
  let targets = Array.of_list (List.map (target_of cfg) cfg.snapshots) in
  let n_items = Array.length targets * cfg.pool in
  let sample = make_sampler cfg.mix ~n_items in
  let agg =
    {
      m = Mutex.create ();
      hists = Array.map (fun _ -> Histogram.create ()) targets;
      reqs = Array.make (Array.length targets) 0;
      oks = Array.make (Array.length targets) 0;
      sent = 0;
      ok = 0;
      ok_measured = 0;
      shed_full = 0;
      shed_deadline = 0;
      shed_drain = 0;
      errors = 0;
      mismatches = 0;
    }
  in
  let start = Unix.gettimeofday () in
  let warmup_until = start +. cfg.warmup_s in
  let stop_at = start +. cfg.duration_s in
  (match cfg.mode with
  | Closed c ->
      let c = max 1 c in
      let workers =
        List.init c (fun widx ->
            Thread.create
              (fun () ->
                closed_worker cfg targets agg sample ~stop_at ~warmup_until widx)
              ())
      in
      List.iter Thread.join workers
  | Open qps -> open_loop cfg targets agg sample ~qps ~stop_at ~warmup_until);
  let measured_s = Float.max 1e-9 (Unix.gettimeofday () -. warmup_until) in
  let server = fetch_server_stats cfg in
  {
    mode_name = (match cfg.mode with Closed _ -> "closed" | Open _ -> "open");
    concurrency =
      (match cfg.mode with Closed c -> max 1 c | Open _ -> max 1 cfg.writers);
    target_qps = (match cfg.mode with Closed _ -> 0. | Open q -> q);
    mix_name = mix_name cfg.mix;
    measured_s;
    sent = agg.sent;
    ok = agg.ok;
    shed_full = agg.shed_full;
    shed_deadline = agg.shed_deadline;
    shed_drain = agg.shed_drain;
    errors = agg.errors;
    mismatches = agg.mismatches;
    checked = cfg.check;
    throughput_rps = float_of_int agg.ok_measured /. measured_s;
    server_domains =
      (match server with
      | Some s -> s.Protocol.domains
      | None -> cfg.server_domains);
    writers = max 1 cfg.writers;
    server;
    per_structure =
      List.init (Array.length targets) (structure_summary agg targets);
  }

(* ---------- reporting (hand-rolled JSON, like Bench_kit) ---------- *)

let json_of_summary s =
  let structure st =
    Printf.sprintf
      "{\"structure\": \"%s\", \"requests\": %d, \"ok\": %d, \"p50_us\": %.1f, \
       \"p90_us\": %.1f, \"p99_us\": %.1f, \"p999_us\": %.1f, \"max_us\": \
       %.1f, \"mean_us\": %.1f}"
      st.s_name st.s_requests st.s_ok st.s_p50_us st.s_p90_us st.s_p99_us
      st.s_p999_us st.s_max_us st.s_mean_us
  in
  String.concat ""
    [
      "{\n";
      Printf.sprintf "  \"mode\": \"%s\",\n" s.mode_name;
      Printf.sprintf "  \"concurrency\": %d,\n" s.concurrency;
      Printf.sprintf "  \"target_qps\": %.1f,\n" s.target_qps;
      Printf.sprintf "  \"mix\": \"%s\",\n" s.mix_name;
      Printf.sprintf "  \"measured_s\": %.3f,\n" s.measured_s;
      Printf.sprintf "  \"sent\": %d,\n" s.sent;
      Printf.sprintf "  \"ok\": %d,\n" s.ok;
      Printf.sprintf
        "  \"shed\": {\"queue_full\": %d, \"deadline\": %d, \"draining\": %d},\n"
        s.shed_full s.shed_deadline s.shed_drain;
      Printf.sprintf "  \"errors\": %d,\n" s.errors;
      Printf.sprintf "  \"check\": {\"enabled\": %b, \"mismatches\": %d},\n"
        s.checked s.mismatches;
      Printf.sprintf "  \"throughput_rps\": %.1f,\n" s.throughput_rps;
      (match s.server with
      | Some sv ->
          Printf.sprintf
            "  \"meta\": {\"server_domains\": %d, \"server_dispatchers\": %d, \
             \"server_readers\": %d, \"writers\": %d, \"server_batches\": %d, \
             \"server_coalesced\": %d, \"server_max_batch\": %d},\n"
            sv.Protocol.domains sv.Protocol.dispatchers sv.Protocol.readers
            s.writers sv.Protocol.batches sv.Protocol.coalesced
            sv.Protocol.max_batch
      | None ->
          Printf.sprintf
            "  \"meta\": {\"server_domains\": %d, \"writers\": %d},\n"
            s.server_domains s.writers);
      "  \"structures\": [\n    ";
      String.concat ",\n    " (List.map structure s.per_structure);
      "\n  ]\n}\n";
    ]

let write_json ~path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (json_of_summary s))

let pp_summary ppf s =
  Format.fprintf ppf
    "%s loop (%s mix): %d sent, %d ok, %.1f req/s over %.1fs@\n\
     shed: %d queue-full, %d deadline, %d draining; %d errors%s@\n"
    s.mode_name s.mix_name s.sent s.ok s.throughput_rps s.measured_s s.shed_full
    s.shed_deadline s.shed_drain s.errors
    (if s.checked then Printf.sprintf "; %d oracle mismatches" s.mismatches
     else "");
  (match s.server with
  | Some sv ->
      Format.fprintf ppf
        "server: %d dispatcher%s, %d reader%s, %d domain%s; %d batches (%d \
         coalesced requests, max batch %d)@\n"
        sv.Protocol.dispatchers
        (if sv.Protocol.dispatchers = 1 then "" else "s")
        sv.Protocol.readers
        (if sv.Protocol.readers = 1 then "" else "s")
        sv.Protocol.domains
        (if sv.Protocol.domains = 1 then "" else "s")
        sv.Protocol.batches sv.Protocol.coalesced sv.Protocol.max_batch
  | None -> ());
  List.iter
    (fun st ->
      Format.fprintf ppf
        "  %-14s %7d ok  p50 %8.1fus  p90 %8.1fus  p99 %8.1fus  p999 %8.1fus  \
         max %8.1fus@\n"
        st.s_name st.s_ok st.s_p50_us st.s_p90_us st.s_p99_us st.s_p999_us
        st.s_max_us)
    s.per_structure

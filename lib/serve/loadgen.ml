module Index = Lcsearch_index.Index
module Workloads = Lcsearch_index.Workloads
module Query_engine = Lcsearch_index.Query_engine
module Histogram = Lcsearch_index.Histogram

type mix = Uniform_mix | Zipf of float
type mode = Closed of int | Open of { qps : float; conns : int }

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
  }

(* ---------- targets: replayed query pools + optional oracle ---------- *)

type expected = {
  e_count : int;
  e_reads : int;
  e_writes : int;
  e_hits : int;
  e_ids : int array;  (* sorted build-time ids *)
}

type target = {
  t_name : string;
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
let oracle_of path queries =
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
        e_ids = sorted_ids reporter;
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
    t_queries = queries;
    t_expected = (if cfg.check then Some (oracle_of path queries) else None);
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

(* ---------- accounting ---------- *)

type agg = {
  hists : Histogram.t array; (* per target, post-warmup latencies in ns *)
  late : Histogram.t; (* post-warmup generator lateness in ns *)
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
      && ((not cfg.want_ids)
         ||
         let got = Array.copy ids in
         Array.sort Int.compare got;
         got = e.e_ids)

let note_response cfg agg targets ~tidx ~qidx ~lat_ns ~measured msg =
  match (msg : Protocol.msg) with
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
      agg.errors <- agg.errors + 1

(* ---------- the wire: one select loop over non-blocking Conns ---------- *)

(* How long the run waits for outstanding answers once it stops
   issuing, and how long the stats round trip may take. *)
let grace_s = 2.

let ns_of_s s = int_of_float (s *. 1e9)

let connect cfg =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
    Unix.connect fd
      (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
    Unix.set_nonblock fd;
    Conn.create fd
  with Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    failwith
      (Printf.sprintf "cannot connect to %s:%d: %s" cfg.host cfg.port
         (Unix.error_message e))

let msg_id = function
  | Protocol.Query q -> q.Protocol.id
  | Protocol.Result r -> r.id
  | Protocol.Shed s -> s.id
  | Protocol.Error e -> e.id
  | Protocol.Stats_query s -> s.id
  | Protocol.Stats s -> s.id

(* One select round over [conns]: resume partial writes the socket now
   accepts, read what arrived and hand every complete frame to
   [on_frame].  A connection the server closed, or whose byte stream
   broke, goes to [on_hangup] instead. *)
let pump conns ~timeout ~on_frame ~on_hangup =
  let fds = List.map Conn.fd conns in
  let wfds =
    List.filter_map
      (fun c -> if Conn.wants_write c then Some (Conn.fd c) else None)
      conns
  in
  match Unix.select fds wfds [] (Float.max 0. timeout) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, writable, _ ->
      List.iter
        (fun c ->
          if List.mem (Conn.fd c) writable then Conn.flush c;
          if List.mem (Conn.fd c) readable then
            match Conn.refill c with
            | `Blocked -> ()
            | `Eof -> on_hangup c
            | `Data ->
                let rec frames () =
                  (* [on_frame] may hang up the connection *)
                  if Conn.alive c then
                    match Conn.next_frame c with
                    | `Msg m ->
                        on_frame c m;
                        frames ()
                    | `More -> ()
                    | `Broken _ -> on_hangup c
                in
                frames ())
        conns

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

(* A request in flight: when it was due, and what the oracle needs. *)
type request = { due : float; tidx : int; qidx : int }

type link = {
  conn : Conn.t;
  pending : (int, request) Hashtbl.t; (* by request id *)
  mutable ready_at : float; (* when this link's last answer landed *)
}

(* Both loop shapes on one thread.  Every request gets a due time
   before it is written — closed loop: the moment its link's previous
   answer landed (window 1); open loop: [start + k/qps], dealt
   round-robin over the live links — and its latency runs from that
   due time, so a stalled generator is charged to every request it
   delays; [written - due] goes to the lateness histogram.  Issuing
   stops at [stop_at]; answers are awaited until [stop_at + grace_s].
   Every sent request leaves [pending] exactly once — answered, or
   counted as an error when it is still unanswered at the end or its
   link hangs up — so [sent = ok + sheds + errors]. *)
let drive cfg targets agg sample links ~start ~warmup_until ~stop_at =
  let rng = Workload.rng cfg.seed in
  let nt = Array.length targets and n = Array.length links in
  let give_up = stop_at +. grace_s in
  let link_of c = Option.get (Array.find_opt (fun l -> l.conn == c) links) in
  let up l = Conn.alive l.conn in
  let hang_up l =
    agg.errors <- agg.errors + Hashtbl.length l.pending;
    Hashtbl.reset l.pending;
    Conn.close l.conn
  in
  let seq = ref 0 in
  let issue l ~due =
    let item = sample rng in
    let tidx = item mod nt and qidx = item / nt in
    let id = !seq land 0xffffffff in
    incr seq;
    agg.sent <- agg.sent + 1;
    agg.reqs.(tidx) <- agg.reqs.(tidx) + 1;
    Hashtbl.replace l.pending id { due; tidx; qidx };
    if due >= warmup_until then
      Histogram.record agg.late (ns_of_s (Unix.gettimeofday () -. due));
    if not (Conn.send l.conn (query_msg cfg targets.(tidx) qidx ~id)) then
      hang_up l
  in
  let on_frame c msg =
    let l = link_of c in
    let id = msg_id msg in
    match Hashtbl.find_opt l.pending id with
    | None -> hang_up l (* an answer to nothing: the stream is out of step *)
    | Some r ->
        Hashtbl.remove l.pending id;
        let now = Unix.gettimeofday () in
        l.ready_at <- now;
        note_response cfg agg targets ~tidx:r.tidx ~qidx:r.qidx
          ~lat_ns:(ns_of_s (now -. r.due))
          ~measured:(r.due >= warmup_until) msg
  in
  (* open loop: request [k] is due at [start + k/qps] and goes to the
     next live link after [rr] *)
  let k = ref 0 and rr = ref 0 in
  let open_due qps = start +. (float_of_int !k /. Float.max 1e-6 qps) in
  let rec loop () =
    let now = Unix.gettimeofday () in
    (* issue what is due; [wake] is the next time a request falls due *)
    let wake =
      match cfg.mode with
      | Closed _ when now < stop_at ->
          Array.iter
            (fun l ->
              if up l && Hashtbl.length l.pending = 0 then
                issue l ~due:l.ready_at)
            links;
          stop_at
      | Closed _ -> give_up
      | Open { qps; _ } ->
          while
            open_due qps <= now && open_due qps < stop_at
            && Array.exists up links
          do
            while not (up links.(!rr mod n)) do incr rr done;
            issue links.(!rr mod n) ~due:(open_due qps);
            incr rr;
            incr k
          done;
          if open_due qps < stop_at then open_due qps else give_up
    in
    let live = List.filter up (Array.to_list links) in
    let outstanding = List.exists (fun l -> Hashtbl.length l.pending > 0) live in
    if live <> [] && now < give_up && (wake < give_up || outstanding) then begin
      pump
        (List.map (fun l -> l.conn) live)
        ~timeout:(wake -. now) ~on_frame
        ~on_hangup:(fun c -> hang_up (link_of c));
      loop ()
    end
  in
  loop ();
  (* unanswered at the end of the grace *)
  Array.iter hang_up links

(* ---------- server-side counters (Stats_query) ---------- *)

(* Fetched on a fresh connection after the run, so BENCH_SERVE.json
   carries the server's own dispatcher/coalescing story.  None when
   the server is gone or does not answer within the grace. *)
let fetch_server_stats cfg =
  match connect cfg with
  | exception Failure _ -> None
  | conn ->
      let got = ref None and over = ref false in
      let give_up = Unix.gettimeofday () +. grace_s in
      if Conn.send conn (Protocol.Stats_query { id = 0 }) then
        while (not !over) && Unix.gettimeofday () < give_up do
          pump [ conn ]
            ~timeout:(give_up -. Unix.gettimeofday ())
            ~on_frame:(fun _ msg ->
              over := true;
              match msg with
              | Protocol.Stats { stats; _ } -> got := Some stats
              | _ -> ())
            ~on_hangup:(fun _ -> over := true)
        done;
      Conn.close conn;
      Conn.close_fd conn;
      !got

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
  late_p50_us : float;
  late_p99_us : float;
  server : Protocol.server_stats option;
  per_structure : structure_summary list;
}

let mix_name = function
  | Uniform_mix -> "uniform"
  | Zipf s -> Printf.sprintf "zipf-%.2f" s

let us ns = float_of_int ns /. 1000.
let pct h p = if Histogram.count h = 0 then 0. else us (Histogram.percentile h p)

let structure_summary agg targets i =
  let h = agg.hists.(i) in
  {
    s_name = targets.(i).t_name;
    s_requests = agg.reqs.(i);
    s_ok = agg.oks.(i);
    s_p50_us = pct h 0.5;
    s_p90_us = pct h 0.9;
    s_p99_us = pct h 0.99;
    s_p999_us = pct h 0.999;
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
  let n_conns =
    max 1 (match cfg.mode with Closed c -> c | Open { conns; _ } -> conns)
  in
  let agg =
    {
      hists = Array.map (fun _ -> Histogram.create ()) targets;
      late = Histogram.create ();
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
  let conns = List.init n_conns (fun _ -> connect cfg) in
  let start = Unix.gettimeofday () in
  let links =
    Array.of_list
      (List.map
         (fun conn -> { conn; pending = Hashtbl.create 64; ready_at = start })
         conns)
  in
  let warmup_until = start +. cfg.warmup_s in
  let stop_at = start +. cfg.duration_s in
  Fun.protect
    ~finally:(fun () -> List.iter Conn.close_fd conns)
    (fun () ->
      drive cfg targets agg sample links ~start ~warmup_until ~stop_at);
  let measured_s = Float.max 1e-9 (Unix.gettimeofday () -. warmup_until) in
  {
    mode_name = (match cfg.mode with Closed _ -> "closed" | Open _ -> "open");
    concurrency = n_conns;
    target_qps = (match cfg.mode with Closed _ -> 0. | Open { qps; _ } -> qps);
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
    late_p50_us = pct agg.late 0.5;
    late_p99_us = pct agg.late 0.99;
    server = fetch_server_stats cfg;
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
      Printf.sprintf
        "  \"generator_lateness\": {\"p50_us\": %.1f, \"p99_us\": %.1f},\n"
        s.late_p50_us s.late_p99_us;
      (match s.server with
      | Some sv ->
          Printf.sprintf
            "  \"meta\": {\"server_domains\": %d, \"server_dispatchers\": %d, \
             \"server_readers\": %d, \"server_batches\": %d, \
             \"server_coalesced\": %d, \"server_max_batch\": %d},\n"
            sv.Protocol.domains sv.Protocol.dispatchers sv.Protocol.readers
            sv.Protocol.batches sv.Protocol.coalesced sv.Protocol.max_batch
      | None -> "  \"meta\": {},\n");
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
     shed: %d queue-full, %d deadline, %d draining; %d errors%s@\n\
     generator lateness: p50 %.1fus, p99 %.1fus@\n"
    s.mode_name s.mix_name s.sent s.ok s.throughput_rps s.measured_s s.shed_full
    s.shed_deadline s.shed_drain s.errors
    (if s.checked then Printf.sprintf "; %d oracle mismatches" s.mismatches
     else "")
    s.late_p50_us s.late_p99_us;
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

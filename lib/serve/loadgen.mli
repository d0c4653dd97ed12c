(** The load generator behind [lcsearch loadgen].

    Regenerates each target snapshot's workload from its meta string
    (same rng contract as [lcsearch query]), pregenerates a pool of
    halfspace queries per structure, and drives a running server over
    [c] non-blocking connections from one thread and one [select]
    loop, in one of two shapes:

    - {b closed loop} ([Closed c]): one outstanding request per
      connection — throughput is latency-bound, the classic
      "think-time zero" closed system;
    - {b open loop} ([Open { qps; conns }]): request [k] is due at
      [start + k/qps] whatever the completions, dealt round-robin over
      the connections — the shape that exposes queueing collapse,
      where a closed loop would politely slow down with the server.

    Every request gets a due time before it is written (closed loop:
    the moment its connection's previous answer landed), and its
    latency is measured from that due time, so a stalled generator is
    charged to every request it delays.  How late the generator wrote
    each request (written − due) is reported separately as
    [late_p50_us]/[late_p99_us].  Issuing stops after [duration_s];
    outstanding answers are awaited for at most 2 s more.  Unanswered
    requests, and requests on a connection the server closed, count as
    [errors], so every summary satisfies
    [sent = ok + shed_full + shed_deadline + shed_drain + errors].
    The run ends early once every connection is closed.

    After the run the generator asks the server for its own counters
    ({!Protocol.Stats_query}) and stamps the effective dispatcher,
    reader, and domain counts plus batch/coalescing totals into the
    summary meta — BENCH_SERVE.json records what the server actually
    ran, not what the operator passed on the command line.

    Requests pick a (structure, query) item uniformly or Zipfian
    ([Zipf s], popularity by item rank).  Latencies go into
    per-structure log-bucketed {!Lcsearch_index.Histogram}s (recorded
    for requests due after [warmup_s]); the summary carries
    p50/p99/p999 per structure plus shed/error counts, and
    {!write_json} emits the BENCH_SERVE.json consumed by the CI gate.

    With [check = true] every target snapshot is also reopened
    in-process (resident) and each pool query run once through
    {!Lcsearch_index.Query_engine.run_one} before load starts; every
    server [Result] is then compared against this sequential golden
    oracle — count, reads/writes/hits cost words, and (when ids flow)
    the sorted id set.  [mismatches > 0] means the server's concurrent
    path diverged from the sequential one. *)

type mix = Uniform_mix | Zipf of float
type mode =
  | Closed of int  (** connections *)
  | Open of { qps : float;  (** target arrival rate *) conns : int }

type config = {
  host : string;
  port : int;
  snapshots : string list;
  mode : mode;
  mix : mix;
  duration_s : float;
  warmup_s : float;
  pool : int;  (** pregenerated queries per structure *)
  fraction : float;  (** query selectivity for the regenerated pool *)
  want_ids : bool;
  deadline_ms : int;  (** 0 = server default *)
  check : bool;
  seed : int;
}

val default_config : config

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
  concurrency : int;  (** connections *)
  target_qps : float;  (** 0 for closed loop *)
  mix_name : string;
  measured_s : float;  (** post-warmup window *)
  sent : int;
  ok : int;
  shed_full : int;
  shed_deadline : int;
  shed_drain : int;
  errors : int;
  mismatches : int;  (** oracle disagreements; 0 unless [check] *)
  checked : bool;
  throughput_rps : float;  (** ok responses per measured second *)
  late_p50_us : float;  (** generator lateness, written − due *)
  late_p99_us : float;
  server : Protocol.server_stats option;
      (** the server's own counters, fetched after the run; [None]
          when it cannot answer *)
  per_structure : structure_summary list;
}

val run : config -> summary
(** Raises [Failure] if a snapshot cannot be read or the server is
    unreachable at the start.  Returns within [duration_s] plus the
    2 s grace, plus at most another 2 s for the stats round trip. *)

val write_json : path:string -> summary -> unit
val pp_summary : Format.formatter -> summary -> unit

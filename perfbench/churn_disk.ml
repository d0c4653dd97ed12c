(* churn_disk: in-process writes beside reads on the LSM layer, then a
   directory save, a cold non-resident reopen under a small buffer
   pool, and queries.

   Why this workload: Lsm spills and merges (level rebuilds make the
   update tail), diskstore save/load and the buffer pool, and block
   decode under pool misses do the work; serve does none.  h2 takes
   the point-reporting tombstone path (row multiset subtraction),
   ptree the id-filter path — Nekrich's logarithmic method over two
   different inner structures.

   The stream has a fixed length set by --seconds and a fixed
   operation pattern, so the merge schedule is the same for every seed
   and the exact figures (I/Os per query and per update, bytes per
   point, pool faults) repeat bit-for-bit for a seed.

   Timed windows: the initial builds (set-up, three times), every
   stream operation, each save, each reopen, each cold query and the
   closed query loop on the last reopened copies.  The
   stream's inputs, the rebuild-from-live oracle and its checks run
   outside them. *)

module Index = Lcsearch_index.Index
module Registry = Lcsearch_index.Registry
module Workloads = Lcsearch_index.Workloads
module Lsm = Lcsearch_index.Lsm
module QE = Lcsearch_index.Query_engine

let n = 8192
let memtable = 64
let pool = 256

(* The closed query loop on the reopened copies asks the first
   [loop_pool] pool queries over and over: each is asked ~90 times in a
   run, so the gated p50 (see Kit.best_p50_us) catches its fastest call
   in some fast moment of the host.  Over all 256, each was asked ~13
   times and the figure spread by 17% over five seeds. *)
let loop_pool = 64
let fraction = 0.02
let cache_pages = 64
let repeats = 3

(* Stream operations per second of --seconds.  At the default 10 s
   each structure takes 7500 inserts: merges carry up to the 4096-point
   level but stay below the carry into the 8192-point base level, whose
   single rebuild would dominate the whole stream. *)
let ops_per_second = 6000

type side = {
  label : string;
  inner : (module Index.S);
  mutable inst : Index.instance;
  live : (int, float array) Hashtbl.t;
  fifo : int array;  (* live handles, oldest first, in [head, tail) *)
  mutable head : int;
  mutable tail : int;
  q_lat : Kit.Samples.t;
  ins_lat : Kit.Samples.t;
  del_lat : Kit.Samples.t;
  mutable merge_ns : int;
  mutable q_ios : int;
}

let row_of_point2 p = [| Geom.Point2.x p; Geom.Point2.y p |]

let dataset_of_rows rows =
  Index.Pts2 (Array.map (fun r -> Geom.Point2.make r.(0) r.(1)) rows)

let n_live side = side.tail - side.head

let live_rows side =
  Array.map (Hashtbl.find side.live) (Array.sub side.fifo side.head (n_live side))

let sorted_rows rows = List.sort compare rows

(* The rebuild-from-live oracle: a static inner structure over the
   live rows must report exactly the same multiset of rows. *)
let static_of side =
  Index.build side.inner ~params:Index.default_params
    ~stats:(Emio.Io_stats.create ()) (dataset_of_rows (live_rows side))

let check_against_static side static queries ~what =
  let lsm_reads = ref 0 and static_reads = ref 0 in
  Array.iteri
    (fun i q ->
      let got = sorted_rows (Index.query side.inst q) in
      let want = sorted_rows (Index.query static q) in
      let ok = got = want in
      if not ok then
        Kit.mismatch "%s %s query %d: %d rows, static rebuild %d" side.label what i
          (List.length got) (List.length want);
      Kit.attempt ok;
      lsm_reads := !lsm_reads + (QE.run_one side.inst q).QE.reads;
      static_reads := !static_reads + (QE.run_one static q).QE.reads)
    queries;
  float_of_int !lsm_reads /. float_of_int (max 1 !static_reads)

let counter side key =
  Option.value ~default:0 (List.assoc_opt key (Index.counters side.inst))

(* Inserts alternate between the two structures (fresh point 2k goes to
   h2, 2k+1 to ptree).  The seed shuffles each structure's points among
   themselves: after the stream's FIFO deletes nearly every live point
   is a fresh one, and when the seed drew them the reopened loop's p50
   moved by 20% between seeds, for every run of a seed alike.  With a
   fixed set in seeded order every seed ends with the same live points
   (while the deletes reach only original points: up to 16 s of stream),
   and the seed still decides which of them share a level. *)
let shuffle_each_side rng a =
  let n = Array.length a in
  for side = 0 to 1 do
    for i = ((n - side + 1) / 2) - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = a.(side + (2 * i)) in
      a.(side + (2 * i)) <- a.(side + (2 * j));
      a.(side + (2 * j)) <- x
    done
  done

let run ~work ~seed ~seconds ~trace =
  let rng = Workload.rng Kit.dataset_seed in
  let n_ops = max 200 (int_of_float (seconds *. float_of_int ops_per_second)) in
  let h2 = Registry.find_exn "h2" in
  let ds, queries, fresh =
    Kit.untimed "dataset+queries" (fun () ->
        let ds = Workloads.dataset rng ~kind:Workloads.Uniform ~dim:2 ~n h2 in
        let qs = Array.of_list (Workloads.queries rng ds ~fraction ~count:pool) in
        let fresh =
          Workload.uniform2 (Workload.rng (Kit.dataset_seed + 1)) ~n:((n_ops / 4) + 1)
            ~range:Workloads.range2
        in
        shuffle_each_side (Random.State.make [| seed; 0x5f1e |]) fresh;
        (ds, qs, Array.map row_of_point2 fresh))
  in
  Kit.fact "n" (string_of_int n);
  Kit.fact "memtable" (string_of_int memtable);
  Kit.fact "stream"
    (Printf.sprintf
       "%d ops alternating structures, each running query, insert, query, delete" n_ops);
  Kit.fact "buffer_pool_pages" (string_of_int cache_pages);
  let make label =
    let inner = Registry.find_exn label in
    let lsm = Lsm.make ~memtable_cap:memtable ~build_domains:1 ~inner () in
    let times = ref [] and inst = ref None in
    for _ = 1 to repeats do
      inst := None;
      Kit.untimed "gc" Gc.full_major;
      let i, dt =
        Kit.timed ("build." ^ label) (fun () ->
            Kit.time_ns (fun () ->
                Index.build lsm ~params:Index.default_params
                  ~stats:(Emio.Io_stats.create ()) ds))
      in
      times := Kit.s_of_ns dt :: !times;
      inst := Some i
    done;
    let live = Hashtbl.create (2 * n) in
    let pts = match ds with Index.Pts2 p -> p | _ -> assert false in
    Array.iteri (fun i p -> Hashtbl.replace live i (row_of_point2 p)) pts;
    ( {
        label;
        inner;
        inst = Option.get !inst;
        live;
        fifo = Array.init (n + n_ops) (fun i -> i);
        head = 0;
        tail = n;
        q_lat = Kit.Samples.create ();
        ins_lat = Kit.Samples.create ();
        del_lat = Kit.Samples.create ();
        merge_ns = 0;
        q_ios = 0;
      },
      Kit.median_float !times )
  in
  let sides, setups = List.split [ make "h2"; make "ptree" ] in
  let sides = Array.of_list sides in
  Kit.emit "setup_s" "s" (List.fold_left ( +. ) 0. setups);
  (* The stream.  Deletes expire the oldest live point (FIFO, a TTL-style
     churn): which points die, and so how many tombstones each level
     carries, is then the same for every seed, and only the queries and
     the order of the inserted points vary.  Random victims made the tombstone count
     of the base level, and with it the h2 query cost, swing by 30%
     between seeds. *)
  let ops_rng = Random.State.make [| seed; 0xc4a2 |] in
  let next_fresh = ref 0 in
  let u_ios = ref 0 and updates = ref 0 in
  let uctx = Emio.Cost_ctx.create () in
  let merges0 = Array.map (fun s -> counter s "merges") sides in
  Kit.untimed "gc" Gc.compact;
  Kit.timed "stream" (fun () ->
      for step = 0 to n_ops - 1 do
        let side = sides.(step land 1) in
        let u = Index.updater side.inst |> Option.get in
        let kind = (step lsr 1) land 3 in
        if kind = 0 || kind = 2 then begin
          let q = queries.(Random.State.int ops_rng pool) in
          let t0 = Kit.now_ns () in
          let c = QE.run_one side.inst q in
          Kit.Samples.add side.q_lat (Kit.now_ns () - t0);
          side.q_ios <- side.q_ios + c.QE.reads + c.QE.writes
        end
        else begin
          let m0 = if trace then counter side "merges" else 0 in
          Emio.Cost_ctx.reset uctx;
          let insert = kind = 1 || n_live side = 0 in
          let t0 = Kit.now_ns () in
          (if insert then begin
             let row = fresh.(!next_fresh) in
             incr next_fresh;
             let h = Emio.Cost_ctx.with_ctx uctx (fun () -> u.Index.u_insert row) in
             let dt = Kit.now_ns () - t0 in
             Kit.Samples.add side.ins_lat dt;
             Hashtbl.replace side.live h row;
             side.fifo.(side.tail) <- h;
             side.tail <- side.tail + 1;
             if trace && counter side "merges" > m0 then side.merge_ns <- side.merge_ns + dt
           end
           else begin
             let h = side.fifo.(side.head) in
             let ok = Emio.Cost_ctx.with_ctx uctx (fun () -> u.Index.u_delete h) in
             let dt = Kit.now_ns () - t0 in
             Kit.Samples.add side.del_lat dt;
             if not ok then Kit.mismatch "%s: delete of live handle %d refused" side.label h;
             Kit.attempt ok;
             Hashtbl.remove side.live h;
             side.head <- side.head + 1;
             if trace && counter side "merges" > m0 then side.merge_ns <- side.merge_ns + dt
           end);
          u_ios := !u_ios + Emio.Cost_ctx.total uctx;
          incr updates
        end
      done);
  let stream_q = Kit.Samples.create () and all_u = Kit.Samples.create () in
  Array.iter
    (fun s ->
      Array.iter (Kit.Samples.add stream_q) (Kit.Samples.sorted s.q_lat);
      Array.iter (Kit.Samples.add all_u) (Kit.Samples.sorted s.ins_lat);
      Array.iter (Kit.Samples.add all_u) (Kit.Samples.sorted s.del_lat))
    sides;
  Kit.emit "stream_query_p50_us" "us" (Kit.geomean_p50_us (Array.map (fun s -> s.q_lat) sides));
  Kit.emit "stream_query_p99_us" "us" (Kit.quantile stream_q 0.99 /. 1e3);
  (* [probe round] says whether a round carries the traced run's span
     and allocation probe, inside the timed call (see Static_mem) *)
  let loop insts ~probe ~budget_s =
    let plain = Array.map (fun _ -> Kit.Samples.create ()) insts in
    let probed = Array.map (fun _ -> Kit.Samples.create ()) insts in
    let spans = ref [] in
    let best = Array.map (fun _ -> Array.make loop_pool max_int) insts in
    let stop = Kit.now_ns () + int_of_float (budget_s *. 1e9) in
    let round = ref 0 in
    while Kit.now_ns () < stop do
      let qi = !round mod loop_pool in
      let q = queries.(qi) in
      let traced = probe !round in
      Array.iteri
        (fun si inst ->
          let t0 = Kit.now_ns () in
          let w0 = if traced then Gc.minor_words () else 0. in
          ignore (QE.run_one inst q);
          if traced then spans := (t0, Kit.now_ns (), Gc.minor_words () -. w0) :: !spans;
          let dt = Kit.now_ns () - t0 in
          Kit.Samples.add (if traced then probed else plain).(si) dt;
          if dt < best.(si).(qi) then best.(si).(qi) <- dt)
        insts;
      incr round
    done;
    (plain, probed, best)
  in
  Kit.emit ~exact:true "ios_per_query" "count"
    (Kit.geomean
       (Array.map (fun s -> float_of_int s.q_ios /. float_of_int (Kit.Samples.length s.q_lat)) sides));
  Kit.emit "update_ops_s" "1/s" (Kit.qps all_u);
  Kit.emit "update_p99_us" "us" (Kit.quantile all_u 0.99 /. 1e3);
  Kit.emit ~exact:true "update_ios_per_op" "count" (float_of_int !u_ios /. float_of_int !updates);
  Array.iteri
    (fun i s ->
      Kit.emit ~exact:true ("lsm." ^ s.label ^ ".merges") "count"
        (float_of_int (counter s "merges" - merges0.(i)));
      Kit.emit ~exact:true ("lsm." ^ s.label ^ ".levels") "count" (float_of_int (counter s "levels")))
    sides;
  (* oracle before the save; the read ratio against the static rebuild
     is the LSM's query I/O factor *)
  let statics, io_factor =
    Kit.untimed "oracle.before_save" (fun () ->
        let statics = Array.map static_of sides in
        ( statics,
          Array.mapi
            (fun i s -> check_against_static s statics.(i) queries ~what:"before save")
            sides ))
  in
  (* save, cold reopen, cold queries — [repeats] times *)
  let dir = Filename.concat work (Printf.sprintf "churn-seed%d" seed) in
  let saves = Array.map (fun _ -> ref []) sides and loads = Array.map (fun _ -> ref []) sides in
  let cold = Kit.Samples.create () in
  let faults = ref 0 and hits = ref 0 and bytes = ref 0 and cold_q = ref 0 in
  let bytes_per_point = ref 0. and level_pages = ref [] and last = ref [||] in
  for rep = 1 to repeats do
    Kit.untimed "clean" (fun () -> Kit.rm_rf dir; Kit.mkdir_p dir);
    let reopened =
      Array.mapi
        (fun i s ->
          let path = Filename.concat dir s.label in
          let meta = Printf.sprintf "s=%s;n=%d;b=64;w=uniform;seed=%d;d=2" s.label n seed in
          let (), dt =
            Kit.timed ("save." ^ s.label) (fun () ->
                Kit.time_ns (fun () -> Index.snapshot_save s.inst ~path ~meta ~page_size:None))
          in
          saves.(i) := Kit.s_of_ns dt :: !(saves.(i));
          let stats = Emio.Io_stats.create () in
          let (inst, info, _), dt =
            Kit.timed ("reopen." ^ s.label) (fun () ->
                Kit.time_ns (fun () ->
                    match
                      Lsm.open_snapshot ~policy:Diskstore.Buffer_pool.Lru ~cache_pages
                        ~build_domains:1 ~stats path
                    with
                    | Ok r -> r
                    | Error e -> Kit.die "reopen %s: %s" path (Diskstore.Snapshot.error_to_string e)))
          in
          loads.(i) := Kit.s_of_ns dt :: !(loads.(i));
          (path, stats, inst, info))
        sides
    in
    last := Array.map (fun (_, _, inst, _) -> inst) reopened;
    Array.iteri
      (fun i (path, stats, inst, info) ->
        let r0 = Emio.Io_stats.reads stats and h0 = Emio.Io_stats.cache_hits stats in
        let b0 = Emio.Io_stats.bytes_read stats in
        Kit.timed ("cold." ^ sides.(i).label) (fun () ->
            Array.iter
              (fun q ->
                let t0 = Kit.now_ns () in
                ignore (QE.run_one inst q);
                Kit.Samples.add cold (Kit.now_ns () - t0))
              queries);
        if rep = 1 then begin
          faults := !faults + Emio.Io_stats.reads stats - r0;
          hits := !hits + Emio.Io_stats.cache_hits stats - h0;
          bytes := !bytes + Emio.Io_stats.bytes_read stats - b0;
          cold_q := !cold_q + Array.length queries;
          bytes_per_point :=
            !bytes_per_point
            +. float_of_int (Kit.disk_bytes path) /. float_of_int (2 * n_live sides.(i));
          level_pages :=
            Printf.sprintf "%s:%d" sides.(i).label info.Diskstore.Snapshot.total_pages
            :: !level_pages
        end;
        Kit.untimed "oracle.after_reopen" (fun () ->
            let s = sides.(i) in
            let saved = s.inst in
            s.inst <- inst;
            ignore (check_against_static s statics.(i) queries ~what:"after reopen");
            s.inst <- saved))
      reopened
  done;
  (* The gated query figures: a closed loop over the pool's head on the last
     reopened copies, whose 64-page pools stay smaller than the level
     files, so pool misses and block decode persist.  The LRU makes the
     misses exact for a seed; queries on the in-memory index during the
     stream are reported as stream_query_*, but their latency swings by
     up to 50% between runs of the same seed with where the tombstone
     lists land in memory.  The pool is fixed like the dataset (a seeded
     pool moved the loop's p50 by 20% between seeds); the seed orders the
     inserted points and draws which pool query each stream step asks. *)
  Kit.untimed "gc" Gc.full_major;
  let per, _, best =
    Kit.timed "query_loop" (fun () -> loop !last ~probe:(fun _ -> false) ~budget_s:(0.6 *. seconds))
  in
  let pooled = Kit.Samples.create () in
  Array.iter (fun s -> Array.iter (Kit.Samples.add pooled) (Kit.Samples.sorted s)) per;
  Kit.emit "query_p50_us" "us" (Kit.best_p50_us best);
  Kit.emit "query_call_p50_us" "us" (Kit.geomean_p50_us per);
  Kit.emit "query_p99_us" "us" (Kit.quantile pooled 0.99 /. 1e3);
  Kit.emit "query_qps" "1/s" (Kit.geomean (Array.map Kit.qps per));
  Kit.fact "snapshot_pages" (String.concat "," (List.rev !level_pages));
  Kit.fact "pool_vs_files"
    (Printf.sprintf "%d pool pages (split across levels) vs %s snapshot pages" cache_pages
       (String.concat "," (List.rev !level_pages)));
  let med l = Kit.median_float !l in
  let sum_med a = Array.fold_left (fun acc l -> acc +. med l) 0. a in
  Kit.emit "save_s" "s" (sum_med saves);
  Kit.emit "reopen_s" "s" (sum_med loads);
  Kit.emit "cold_query_p50_us" "us" (Kit.quantile cold 0.5 /. 1e3);
  Kit.emit ~exact:true "bytes_per_point" "B" !bytes_per_point;
  let per x = float_of_int x /. float_of_int !cold_q in
  Kit.emit ~exact:true "diskstore.faults_per_query" "count" (per !faults);
  Kit.emit ~exact:true "diskstore.pool_hit_rate" "ratio"
    (float_of_int !hits /. float_of_int (max 1 (!hits + !faults)));
  Kit.emit ~exact:true "diskstore.bytes_read_per_query" "B" (per !bytes);
  if trace then begin
    Array.iteri
      (fun i s ->
        let l = s.label in
        Kit.emit ("lsm." ^ l ^ ".insert_p99_us") "us" (Kit.quantile s.ins_lat 0.99 /. 1e3);
        Kit.emit ("lsm." ^ l ^ ".delete_p99_us") "us" (Kit.quantile s.del_lat 0.99 /. 1e3);
        Kit.emit ("lsm." ^ l ^ ".merge_s") "s" (Kit.s_of_ns s.merge_ns);
        Kit.emit ~exact:true ("lsm." ^ l ^ ".io_factor") "ratio" io_factor.(i);
        Kit.emit ("diskstore." ^ l ^ ".save_s") "s" (med saves.(i));
        Kit.emit ("diskstore." ^ l ^ ".load_s") "s" (med loads.(i)))
      sides;
    (* tracing overhead: the query loop again, probing every other
       round (the parity flips each sweep of the loop's queries), so host drift
       falls on probed and plain calls alike *)
    let plain, probed, _ =
      Kit.timed "query_loop.traced" (fun () ->
          loop !last ~probe:(fun r -> (r + (r / loop_pool)) land 1 = 1) ~budget_s:(0.4 *. seconds))
    in
    let p = Kit.geomean_p50_us plain in
    Kit.emit "trace.overhead_frac" "ratio" ((Kit.geomean_p50_us probed -. p) /. p)
  end

(* The serve subsystem: wire-protocol codec roundtrips, the frame
   rejection matrix (truncated / oversized / malformed), the bounded
   admission queue, and an end-to-end loopback server checked against
   the sequential single-query oracle — including deterministic
   queue-full, deadline, and drain behavior forced through the
   [dispatch_delay_s] test hook. *)

module Protocol = Serve.Protocol
module Frame = Serve.Frame
module Admission = Serve.Admission
module Server = Serve.Server
module Meta = Serve.Meta
module Index = Lcsearch_index.Index
module Workloads = Lcsearch_index.Workloads
module Query_engine = Lcsearch_index.Query_engine
module Registry = Lcsearch_index.Registry
module Shard = Lcsearch_index.Shard
module Lsm = Lcsearch_index.Lsm
module Snapshot_path = Lcsearch_index.Snapshot_path

let check = Alcotest.(check int)

(* ---- message equality (floats bitwise, so a roundtrip property
   holds even for weird payloads) ---- *)

let feq x y = Int64.bits_of_float x = Int64.bits_of_float y

let msg_eq (a : Protocol.msg) (b : Protocol.msg) =
  match (a, b) with
  | Protocol.Query p, Protocol.Query q ->
      p.id = q.id && p.structure = q.structure && p.want_ids = q.want_ids
      && p.deadline_ms = q.deadline_ms && feq p.a0 q.a0
      && Array.length p.a = Array.length q.a
      && Array.for_all2 feq p.a q.a
  | Protocol.Result p, Protocol.Result q ->
      p.id = q.id && p.count = q.count && p.reads = q.reads
      && p.writes = q.writes && p.hits = q.hits
      && p.elapsed_ns = q.elapsed_ns && p.ids = q.ids
  | Protocol.Shed p, Protocol.Shed q -> p.id = q.id && p.reason = q.reason
  | Protocol.Error p, Protocol.Error q ->
      p.id = q.id && p.code = q.code && p.message = q.message
  | Protocol.Stats_query p, Protocol.Stats_query q -> p.id = q.id
  | Protocol.Stats p, Protocol.Stats q -> p.id = q.id && p.stats = q.stats
  | _ -> false

let msg_testable =
  Alcotest.testable (fun ppf m -> Protocol.pp ppf m) msg_eq

(* ---- codec roundtrip property ---- *)

(* A generator over all four constructors, honoring the wire ranges
   (u32 ids and counters). *)
let gen_msg : Protocol.msg QCheck.Gen.t =
 fun st ->
  let open QCheck.Gen in
  let u16 () = int_bound 0xFFFF st in
  let u32 () = u16 () lor (u16 () lsl 16) in
  let str () = string_size (int_bound 12) st in
  let fl () = float st in
  match int_bound 5 st with
  | 0 ->
      Protocol.Query
        {
          id = u32 ();
          structure = str ();
          want_ids = bool st;
          deadline_ms = int_bound 100_000 st;
          a0 = fl ();
          a = Array.init (int_bound 5 st) (fun _ -> fl ());
        }
  | 1 ->
      Protocol.Result
        {
          id = u32 ();
          count = u32 ();
          reads = u32 ();
          writes = u32 ();
          hits = u32 ();
          elapsed_ns = u32 () lor (u32 () lsl 28);
          ids = Array.init (int_bound 20 st) (fun _ -> int st);
        }
  | 2 ->
      Protocol.Shed
        {
          id = u32 ();
          reason =
            (match int_bound 2 st with
            | 0 -> Protocol.Queue_full
            | 1 -> Protocol.Deadline_exceeded
            | _ -> Protocol.Draining);
        }
  | 3 ->
      Protocol.Error
        {
          id = u32 ();
          code =
            (match int_bound 2 st with
            | 0 -> Protocol.Unknown_structure
            | 1 -> Protocol.Bad_dimension
            | _ -> Protocol.Bad_request);
          message = str ();
        }
  | 4 -> Protocol.Stats_query { id = u32 () }
  | _ ->
      Protocol.Stats
        {
          id = u32 ();
          stats =
            {
              Protocol.dispatchers = 1 + int_bound 15 st;
              readers = 1 + int_bound 15 st;
              domains = 1 + int_bound 15 st;
              accepted = u32 ();
              served = u32 ();
              shed_full = u32 ();
              shed_deadline = u32 ();
              shed_drain = u32 ();
              errors = u32 ();
              batches = u32 ();
              coalesced = u32 ();
              max_batch = u32 ();
            };
        }

let arb_msg =
  QCheck.make ~print:(Format.asprintf "%a" Protocol.pp) gen_msg

let prop_roundtrip =
  QCheck.Test.make ~name:"frame encode/decode roundtrip" ~count:500 arb_msg
    (fun m ->
      match Frame.decode (Frame.encode m) with
      | Ok m' -> msg_eq m m'
      | Error e -> QCheck.Test.fail_report (Frame.read_error_to_string e))

let prop_flipped_byte =
  (* corrupting any payload byte is a typed rejection or a decode to a
     different message — never an escaping exception *)
  QCheck.Test.make ~name:"flipped payload byte never escapes"
    ~count:300
    QCheck.(pair arb_msg small_nat)
    (fun (m, off) ->
      let b = Frame.encode m in
      let off = 4 + (off mod (Bytes.length b - 4)) in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x20));
      match Frame.decode b with
      | Ok m' -> not (msg_eq m m') || true
      | Error (Frame.Malformed _) | Error (Frame.Truncated _) -> true
      | Error e -> QCheck.Test.fail_report (Frame.read_error_to_string e))

(* ---- frame rejection matrix ---- *)

let sample_msg =
  Protocol.Query
    {
      id = 7;
      structure = "h2";
      want_ids = false;
      deadline_ms = 50;
      a0 = 1.5;
      a = [| -0.25 |];
    }

let expect_error name expected = function
  | Ok m ->
      Alcotest.failf "%s: decoded %s" name (Format.asprintf "%a" Protocol.pp m)
  | Error e ->
      Alcotest.(check string) name expected (Frame.read_error_to_string e)

let test_truncation () =
  let b = Frame.encode sample_msg in
  (match Frame.decode Bytes.empty with
  | Error (Frame.Truncated { expected = 4; got = 0 }) -> ()
  | r ->
      expect_error "empty buffer" "truncated frame: expected 4 bytes, got 0" r);
  (* every strict prefix is Truncated, never a crash or a parse *)
  for keep = 0 to Bytes.length b - 1 do
    match Frame.decode (Bytes.sub b 0 keep) with
    | Error (Frame.Truncated _) -> ()
    | Ok _ -> Alcotest.failf "prefix of %d bytes decoded" keep
    | Error e ->
        Alcotest.failf "prefix of %d bytes: %s" keep
          (Frame.read_error_to_string e)
  done

let test_oversized () =
  let b = Bytes.make 4 '\000' in
  Bytes.set_int32_le b 0 (Int32.of_int (Frame.default_max_frame + 1));
  (match Frame.decode b with
  | Error (Frame.Oversized { length; max }) ->
      check "oversized length" (Frame.default_max_frame + 1) length;
      check "oversized cap" Frame.default_max_frame max
  | r -> expect_error "oversized" "(oversized)" r);
  (* a tighter per-call cap applies before any payload inspection *)
  let f = Frame.encode sample_msg in
  match Frame.decode ~max_frame:8 f with
  | Error (Frame.Oversized { max = 8; _ }) -> ()
  | r -> expect_error "tight cap" "(oversized at cap 8)" r

let test_malformed () =
  let b = Frame.encode sample_msg in
  (* trailing garbage after a complete frame *)
  (match Frame.decode (Bytes.cat b (Bytes.make 3 'x')) with
  | Error (Frame.Malformed _) -> ()
  | r -> expect_error "trailing bytes" "(malformed)" r);
  (* a wrong magic is named in the rejection, like a snapshot section *)
  let c = Bytes.copy b in
  Bytes.set c 8 'X';
  match Frame.decode c with
  | Error (Frame.Malformed _) -> ()
  | r -> expect_error "bad magic" "(malformed)" r

(* ---- incremental parser (the reactor's read accumulator path) ---- *)

let test_parse_incremental () =
  let f = Frame.encode sample_msg in
  let total = Bytes.length f in
  (* every strict prefix is Need with a target beyond what we have;
     re-parsing at the target (or anything past it) makes progress *)
  for len = 0 to total - 1 do
    match Frame.parse f len with
    | Frame.Need n ->
        Alcotest.(check bool)
          (Printf.sprintf "Need target at %d bytes grows" len)
          true
          (n > len && n <= total)
    | Frame.Parsed _ -> Alcotest.failf "parsed at %d of %d bytes" len total
    | Frame.Broken e ->
        Alcotest.failf "broken at %d bytes: %s" len
          (Frame.read_error_to_string e)
  done;
  (match Frame.parse f total with
  | Frame.Parsed (m, consumed) ->
      Alcotest.check msg_testable "complete frame parses" sample_msg m;
      check "consumed whole frame" total consumed
  | _ -> Alcotest.fail "complete frame must parse");
  (* back-to-back frames: only the first is consumed, trailing bytes
     stay buffered for the next round *)
  let second =
    Protocol.Stats_query { id = 3 }
  in
  let two = Bytes.cat f (Frame.encode second) in
  (match Frame.parse two (Bytes.length two) with
  | Frame.Parsed (m, consumed) ->
      Alcotest.check msg_testable "first of two frames" sample_msg m;
      check "consumed only the first" total consumed
  | _ -> Alcotest.fail "first of two frames must parse");
  (* the length is validated as soon as the prefix is in: four bytes of
     hostile length break the stream before any payload accumulates *)
  let b = Bytes.make 4 '\000' in
  Bytes.set_int32_le b 0 (Int32.of_int (64 * 1024 * 1024));
  match Frame.parse b 4 with
  | Frame.Broken (Frame.Oversized _) -> ()
  | _ -> Alcotest.fail "oversized prefix must break the stream"

(* ---- nonblocking writer (the conn outbox flush path) ---- *)

let test_write_some_partial_and_blocked () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ a; b ])
  @@ fun () ->
  Unix.set_nonblock a;
  (try Unix.setsockopt_int a Unix.SO_SNDBUF 4096
   with Unix.Unix_error _ -> ());
  let payload =
    Bytes.init (512 * 1024) (fun i -> Char.chr (((i * 31) + (i / 7)) land 0xFF))
  in
  let len = Bytes.length payload in
  let received = Buffer.create len in
  let chunk = Bytes.create 8192 in
  let drain_some () =
    match Unix.read b chunk 0 8192 with
    | 0 -> Alcotest.fail "peer closed early"
    | n -> Buffer.add_subbytes received chunk 0 n
  in
  let blocked = ref 0 and partial = ref 0 and pos = ref 0 in
  while !pos < len do
    match Frame.write_some a payload !pos (len - !pos) with
    | `Wrote n ->
        if n > 0 && n < len - !pos then incr partial;
        pos := !pos + n
    | `Blocked ->
        (* exactly what the reactor does: park until writable — here the
           peer draining the socket is what makes it writable again *)
        incr blocked;
        drain_some ()
    | `Closed -> Alcotest.fail "socketpair reported closed mid-write"
  done;
  Alcotest.(check bool) "send buffer filled at least once" true (!blocked > 0);
  Alcotest.(check bool) "partial writes happened" true (!partial > 0);
  Unix.close a;
  (let rec drain_rest () =
     match Unix.read b chunk 0 8192 with
     | 0 -> ()
     | n ->
         Buffer.add_subbytes received chunk 0 n;
         drain_rest ()
   in
   drain_rest ());
  Alcotest.(check int) "nothing lost" len (Buffer.length received);
  Alcotest.(check bool) "bytes arrive unreordered" true
    (Bytes.equal payload (Buffer.to_bytes received))

let test_write_some_closed_peer () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  Unix.close b;
  let payload = Bytes.make 4096 'x' in
  let rec poke tries =
    if tries = 0 then
      Alcotest.fail "write to a closed peer never reported `Closed"
    else
      match Frame.write_some a payload 0 4096 with
      | `Closed -> ()
      | `Wrote _ | `Blocked -> poke (tries - 1)
  in
  poke 10;
  Unix.close a

(* ---- admission queue ---- *)

let test_admission_fifo_and_full () =
  let q = Admission.create 2 in
  Alcotest.(check bool) "push 1" true (Admission.push q 1 = Admission.Accepted);
  Alcotest.(check bool) "push 2" true (Admission.push q 2 = Admission.Accepted);
  Alcotest.(check bool) "push over capacity" true
    (Admission.push q 3 = Admission.Full);
  check "length" 2 (Admission.length q);
  (match Admission.pop_batch q ~max:1 ~timeout:1. with
  | Admission.Items [ 1 ] -> ()
  | _ -> Alcotest.fail "pop max:1 must return the oldest item");
  (* the freed slot is immediately reusable, and order stays FIFO *)
  Alcotest.(check bool) "push 4" true (Admission.push q 4 = Admission.Accepted);
  (match Admission.pop_batch q ~max:10 ~timeout:1. with
  | Admission.Items [ 2; 4 ] -> ()
  | _ -> Alcotest.fail "pop must return [2; 4] in FIFO order");
  (match Admission.pop_batch q ~max:10 ~timeout:0.02 with
  | Admission.Timeout -> ()
  | _ -> Alcotest.fail "empty queue must time out");
  Admission.dispose q

let test_admission_close_and_drain () =
  let q = Admission.create 4 in
  ignore (Admission.push q "a");
  Admission.close q;
  Alcotest.(check bool) "push after close" true
    (Admission.push q "b" = Admission.Closed);
  (match Admission.pop_batch q ~max:10 ~timeout:1. with
  | Admission.Items [ "a" ] -> ()
  | _ -> Alcotest.fail "backlog must drain after close");
  (match Admission.pop_batch q ~max:10 ~timeout:1. with
  | Admission.Drained -> ()
  | _ -> Alcotest.fail "closed empty queue must report Drained");
  Admission.dispose q

(* many pushers, one popper: nothing lost, nothing duplicated, and
   each pusher's items arrive in its own order *)
let test_admission_concurrent () =
  let q = Admission.create 8 in
  let pushers = 4 and per = 200 in
  let threads =
    List.init pushers (fun p ->
        Thread.create
          (fun () ->
            for i = 0 to per - 1 do
              let rec retry () =
                match Admission.push q (p, i) with
                | Admission.Accepted -> ()
                | Admission.Full ->
                    Thread.yield ();
                    retry ()
                | Admission.Closed -> Alcotest.fail "queue closed early"
              in
              retry ()
            done)
          ())
  in
  let seen = Array.make pushers (-1) in
  let total = ref 0 in
  while !total < pushers * per do
    match Admission.pop_batch q ~max:16 ~timeout:5. with
    | Admission.Items items ->
        List.iter
          (fun (p, i) ->
            if i <> seen.(p) + 1 then
              Alcotest.failf "pusher %d: item %d after %d" p i seen.(p);
            seen.(p) <- i;
            incr total)
          items
    | Admission.Timeout -> Alcotest.fail "popper starved"
    | Admission.Drained -> Alcotest.fail "queue closed early"
  done;
  List.iter Thread.join threads;
  check "all items delivered" (pushers * per) !total;
  Admission.dispose q

(* Many pushers AND many poppers: with several consumers racing on one
   ring, every item is still delivered exactly once and each consumer
   sees its pops in global FIFO order (contiguous runs under the lock).
   This is the safety property the sharded server leans on. *)
let test_admission_multi_consumer () =
  let q = Admission.create 16 in
  let pushers = 3 and per = 400 and consumers = 3 in
  let push_threads =
    List.init pushers (fun p ->
        Thread.create
          (fun () ->
            for i = 0 to per - 1 do
              let rec retry () =
                match Admission.push q (p, i) with
                | Admission.Accepted -> ()
                | Admission.Full ->
                    Thread.yield ();
                    retry ()
                | Admission.Closed -> Alcotest.fail "queue closed early"
              in
              retry ()
            done)
          ())
  in
  let got = Array.make consumers [] in
  let pop_threads =
    List.init consumers (fun c ->
        Thread.create
          (fun () ->
            let rec go () =
              match Admission.pop_batch q ~max:5 ~timeout:5. with
              | Admission.Items items ->
                  got.(c) <- got.(c) @ items;
                  go ()
              | Admission.Timeout -> Alcotest.fail "consumer starved"
              | Admission.Drained -> ()
            in
            go ())
          ())
  in
  List.iter Thread.join push_threads;
  Admission.close q;
  List.iter Thread.join pop_threads;
  (* exactly-once: the union across consumers is the full pushed set *)
  let seen = Hashtbl.create (pushers * per) in
  Array.iter
    (List.iter (fun item ->
         if Hashtbl.mem seen item then
           let p, i = item in
           Alcotest.failf "item (%d,%d) delivered twice" p i
         else Hashtbl.replace seen item ()))
    got;
  check "all items delivered exactly once" (pushers * per)
    (Hashtbl.length seen);
  (* per-consumer monotonicity: within one consumer each pusher's
     items appear in that pusher's push order *)
  Array.iteri
    (fun c items ->
      let last = Array.make pushers (-1) in
      List.iter
        (fun (p, i) ->
          if i <= last.(p) then
            Alcotest.failf "consumer %d: pusher %d item %d after %d" c p i
              last.(p);
          last.(p) <- i)
        items)
    got;
  (* close semantics under concurrency: every consumer exited on
     Drained, and a late push is refused *)
  Alcotest.(check bool) "push after close" true
    (Admission.push q (0, 0) = Admission.Closed);
  Admission.dispose q

(* ---- end-to-end loopback ---- *)

let temp_dir =
  lazy
    (let d =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "lcserve_test_%d" (Unix.getpid ()))
     in
     (try Unix.mkdir d 0o700
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     d)

(* The wrapper stack `lcsearch build` assembles: [shards] > 1 wraps
   the registry structure in the sharded layer (STR tiles), [dynamic]
   wraps the result in the LSM layer. *)
let layout_module ?(shards = 1) ?(dynamic = false) name =
  let m = Registry.find_exn name in
  let m =
    if shards = 1 then m else Shard.make ~inner:m ~shards ~partition:Shard.Str ()
  in
  if dynamic then Lsm.make ~inner:m () else m

(* Build a snapshot exactly like `lcsearch build`: same meta encoder,
   same rng consumption, so Meta.replay_queries reproduces the build
   process's query stream. *)
let build_snapshot ?(shards = 1) ?(dynamic = false) name ~n ~seed =
  let module M = (val layout_module ~shards ~dynamic name : Index.S) in
  let ops = Option.get M.snapshot in
  let dim = List.hd M.dims in
  let rng = Workload.rng seed in
  let ds = Workloads.dataset rng ~kind:Workloads.Uniform ~dim ~n (module M : Index.S) in
  let stats = Emio.Io_stats.create () in
  let bctx = Emio.Cost_ctx.create () in
  let t =
    Emio.Cost_ctx.with_ctx bctx (fun () ->
        M.build ~params:Index.default_params ~stats ds)
  in
  let path =
    Filename.concat (Lazy.force temp_dir)
      (Printf.sprintf "%s-k%d%s.snap" name shards
         (if dynamic then "-lsm" else ""))
  in
  let meta =
    Snapshot_path.meta_to_string
      {
        structure = name;
        n;
        block_size = Index.default_params.Index.block_size;
        kind = Workloads.Uniform;
        seed;
        dim;
        shards = (if shards = 1 then None else Some (shards, Shard.Str));
      }
  in
  ops.Index.save t ~path ~meta ~page_size:None;
  path

let load_resident path =
  Diskstore.File_backend.set_resident_on_reopen true;
  Fun.protect
    ~finally:(fun () -> Diskstore.File_backend.set_resident_on_reopen false)
    (fun () ->
      match Meta.load path with
      | Ok l -> l
      | Error e -> Alcotest.failf "oracle reopen of %s: %s" path e)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.;
  fd

let send fd msg =
  match Frame.write fd msg with
  | Ok () -> ()
  | Error `Closed -> Alcotest.fail "send: connection closed"
  | Error `Timeout -> Alcotest.fail "send: timeout"

let recv fd =
  match Frame.read fd with
  | Ok m -> m
  | Error e -> Alcotest.failf "recv: %s" (Frame.read_error_to_string e)

let query ?(want_ids = false) ?(deadline_ms = 0) ~id ~structure (q : Index.query)
    =
  Protocol.Query
    { id; structure; want_ids; deadline_ms; a0 = q.Index.a0; a = q.Index.a }

let with_server cfg f =
  (* serve tests must not die on a peer reset mid-write *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let srv = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

(* Results, costs, and ids over the wire must match the sequential
   single-query oracle bit-for-bit — the same contract `lcsearch
   loadgen --check` enforces under load. *)
let test_e2e_oracle () =
  let h2 = build_snapshot "h2" ~n:512 ~seed:11 in
  let ptree = build_snapshot "ptree" ~n:512 ~seed:12 in
  let cfg =
    { Server.default_config with port = 0; snapshots = [ h2; ptree ]; domains = 2 }
  in
  with_server cfg (fun srv ->
      Alcotest.(check (list (pair string int)))
        "serving both structures" [ ("h2", 2); ("ptree", 2) ]
        (List.sort compare (Server.structures srv));
      let fd = connect (Server.port srv) in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      List.iter
        (fun (path, structure, want_ids) ->
          let oracle = load_resident path in
          let qs = Meta.replay_queries oracle ~fraction:0.05 ~count:12 in
          Array.iteri
            (fun i q ->
              let r = Query_engine.domain_reporter () in
              Emio.Reporter.clear r;
              let expected =
                if want_ids then
                  Query_engine.run_one ~reporter:r oracle.Meta.inst q
                else Query_engine.run_one oracle.Meta.inst q
              in
              let id = (1000 * i) + if want_ids then 1 else 0 in
              send fd (query ~want_ids ~id ~structure q);
              match recv fd with
              | Protocol.Result res ->
                  let label f =
                    Printf.sprintf "%s query %d: %s" structure i f
                  in
                  check (label "id") id res.id;
                  check (label "count") expected.Query_engine.result res.count;
                  check (label "reads") expected.Query_engine.reads res.reads;
                  check (label "writes") expected.Query_engine.writes res.writes;
                  check (label "hits") expected.Query_engine.hits res.hits;
                  Alcotest.(check bool) (label "elapsed sane") true
                    (res.elapsed_ns >= 0);
                  if want_ids then begin
                    let sort a = Array.sort compare a; a in
                    Alcotest.(check (array int)) (label "ids")
                      (sort (Emio.Reporter.to_array r))
                      (sort res.ids)
                  end
                  else check (label "no ids") 0 (Array.length res.ids)
              | m ->
                  Alcotest.failf "%s query %d: unexpected %s" structure i
                    (Format.asprintf "%a" Protocol.pp m))
            qs)
        [ (h2, "h2", false); (ptree, "ptree", true) ];
      let st = Server.stats srv in
      check "all requests served" 24 st.Server.served;
      check "no sheds" 0 (st.Server.shed_full + st.Server.shed_deadline);
      check "no errors" 0 st.Server.errors)

(* One workload, four layouts — single file, sharded (K=4, STR), LSM,
   and LSM over sharded — all reopened through Meta.load.  Each must
   report its layout and base structure, round-trip its meta, replay
   the same query stream, answer with the counts of the base structure
   rebuilt in memory (from the live rows for LSM layouts), and charge
   exactly the costs of the same wrapper stack built in memory. *)
let test_every_layout () =
  let n = 384 and seed = 71 in
  let layouts =
    [
      ("file", 1, false);
      ("sharded", 4, false);
      ("lsm", 1, true);
      ("lsm over sharded", 4, true);
    ]
  in
  let replayed = ref None in
  List.iter
    (fun (label, shards, dynamic) ->
      let path = build_snapshot ~shards ~dynamic "h2" ~n ~seed in
      let l = load_resident path in
      let h = l.Meta.header in
      let label f = Printf.sprintf "%s: %s" label f in
      let layout_ok =
        match h.Snapshot_path.layout with
        | Snapshot_path.File _ -> shards = 1 && not dynamic
        | Snapshot_path.Sharded m -> shards = m.Shard.shards && not dynamic
        | Snapshot_path.Lsm m ->
            dynamic
            && String.equal m.Lsm.inner_kind
                 (if shards = 1 then "lcsearch.h2" else Shard.sharded_kind)
      in
      Alcotest.(check bool) (label "layout") true layout_ok;
      let (module B : Index.S) = h.Snapshot_path.base in
      Alcotest.(check string) (label "base") "h2" B.name;
      Alcotest.(check string) (label "serving name") "h2" l.Meta.name;
      let meta = Snapshot_path.meta_to_string l.Meta.meta_workload in
      Alcotest.(check string)
        (label "meta bytes") l.Meta.info.Diskstore.Snapshot.meta meta;
      Alcotest.(check bool)
        (label "meta round-trip") true
        (Snapshot_path.meta_of_string meta = Ok l.Meta.meta_workload);
      let qs = Meta.replay_queries l ~fraction:0.05 ~count:10 in
      (match !replayed with
      | None -> replayed := Some qs
      | Some first ->
          Alcotest.(check bool) (label "same replayed queries") true (qs = first));
      let _, ds = Snapshot_path.replay h in
      let build (module M : Index.S) ds =
        Index.build (module M) ~params:Index.default_params
          ~stats:(Emio.Io_stats.create ()) ds
      in
      let oracle_ds =
        match h.Snapshot_path.layout with
        | Snapshot_path.Lsm m ->
            Index.Pts2
              (Array.map
                 (fun (_, r) -> Geom.Point2.make r.(0) r.(1))
                 (Lsm.manifest_live_rows m))
        | _ -> ds
      in
      let oracle = build (module B) oracle_ds in
      let same_stack = build (layout_module ~shards ~dynamic "h2") ds in
      Array.iteri
        (fun i q ->
          let got = Query_engine.run_one l.Meta.inst q in
          let want = Query_engine.run_one same_stack q in
          let label f = label (Printf.sprintf "query %d %s" i f) in
          check (label "count vs base oracle")
            (Query_engine.run_one oracle q).Query_engine.result
            got.Query_engine.result;
          check (label "count") want.Query_engine.result got.Query_engine.result;
          check (label "reads") want.Query_engine.reads got.Query_engine.reads;
          check (label "writes") want.Query_engine.writes got.Query_engine.writes;
          check (label "hits") want.Query_engine.hits got.Query_engine.hits)
        qs)
    layouts

(* Invalid requests get typed Error responses and the connection
   survives; a torn stream gets one Error and a hangup. *)
let test_e2e_rejections () =
  let h2 = build_snapshot "h2" ~n:256 ~seed:21 in
  let cfg = { Server.default_config with port = 0; snapshots = [ h2 ] } in
  with_server cfg (fun srv ->
      let fd = connect (Server.port srv) in
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      let expect_code name id code =
        match recv fd with
        | Protocol.Error e ->
            check (name ^ ": id") id e.id;
            Alcotest.(check string)
              (name ^ ": code")
              (Protocol.error_code_name code)
              (Protocol.error_code_name e.code)
        | m ->
            Alcotest.failf "%s: unexpected %s" name
              (Format.asprintf "%a" Protocol.pp m)
      in
      send fd
        (query ~id:1 ~structure:"nope" { Index.a0 = 0.; a = [| 1. |] });
      expect_code "unknown structure" 1 Protocol.Unknown_structure;
      send fd (query ~id:2 ~structure:"h2" { Index.a0 = 0.; a = [| 1.; 2. |] });
      expect_code "bad dimension" 2 Protocol.Bad_dimension;
      send fd
        (query ~id:3 ~structure:"h2" { Index.a0 = Float.nan; a = [| 1. |] });
      expect_code "non-finite" 3 Protocol.Bad_request;
      (* clients must send Query frames *)
      send fd (Protocol.Shed { id = 9; reason = Protocol.Draining });
      expect_code "non-query frame" 0 Protocol.Bad_request;
      (* the connection is still alive after every rejection above *)
      send fd (query ~id:4 ~structure:"h2" { Index.a0 = 100.; a = [| 0.1 |] });
      (match recv fd with
      | Protocol.Result r -> check "live after rejections" 4 r.id
      | m ->
          Alcotest.failf "expected a result, got %s"
            (Format.asprintf "%a" Protocol.pp m));
      (* an oversized length prefix: explain, then hang up *)
      let b = Bytes.make 4 '\000' in
      Bytes.set_int32_le b 0 (Int32.of_int (64 * 1024 * 1024));
      ignore (Unix.write fd b 0 4);
      expect_code "oversized frame" 0 Protocol.Bad_request;
      match Frame.read fd with
      | Error (Frame.Closed | Frame.Truncated _) -> ()
      | Ok m ->
          Alcotest.failf "expected hangup, got %s"
            (Format.asprintf "%a" Protocol.pp m)
      | Error e -> Alcotest.failf "expected hangup, got %s"
            (Frame.read_error_to_string e))

let count_responses fd n =
  let results = ref 0 and full = ref 0 and deadline = ref 0 and drain = ref 0 in
  let ids = Hashtbl.create n in
  for _ = 1 to n do
    (match recv fd with
    | Protocol.Result r ->
        incr results;
        Hashtbl.replace ids r.id ((Hashtbl.find_opt ids r.id |> Option.value ~default:0) + 1)
    | Protocol.Shed s ->
        (match s.reason with
        | Protocol.Queue_full -> incr full
        | Protocol.Deadline_exceeded -> incr deadline
        | Protocol.Draining -> incr drain);
        Hashtbl.replace ids s.id ((Hashtbl.find_opt ids s.id |> Option.value ~default:0) + 1)
    | m ->
        Alcotest.failf "unexpected response %s" (Format.asprintf "%a" Protocol.pp m))
  done;
  Hashtbl.iter
    (fun id k -> if k <> 1 then Alcotest.failf "id %d answered %d times" id k)
    ids;
  (!results, !full, !deadline, !drain)

(* A stalled dispatcher (dispatch_delay_s) with a 1-slot queue: a
   burst must yield explicit Queue_full sheds and exactly one response
   per request — overload is never a hang. *)
let test_e2e_queue_full_shed () =
  let h2 = build_snapshot "h2" ~n:256 ~seed:31 in
  let cfg =
    {
      Server.default_config with
      port = 0;
      snapshots = [ h2 ];
      queue_capacity = 1;
      batch_max = 1;
      default_deadline_ms = 30_000;
      dispatch_delay_s = 0.3;
    }
  in
  with_server cfg (fun srv ->
      let fd = connect (Server.port srv) in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      let n = 10 in
      for id = 1 to n do
        send fd (query ~id ~structure:"h2" { Index.a0 = 100.; a = [| 0.1 |] })
      done;
      let results, full, deadline, drain = count_responses fd n in
      check "every request answered" n (results + full + deadline + drain);
      Alcotest.(check bool) "queue-full sheds happened" true (full >= n - 4);
      check "no deadline sheds" 0 deadline;
      check "no drain sheds" 0 drain;
      let st = Server.stats srv in
      check "stats: shed_full" full st.Server.shed_full;
      check "stats: served" results st.Server.served)

(* With a 1 ms deadline and a 250 ms dispatcher stall, every queued
   request expires while waiting and is shed as Deadline_exceeded at
   pop time. *)
let test_e2e_deadline_shed () =
  let h2 = build_snapshot "h2" ~n:256 ~seed:41 in
  let cfg =
    {
      Server.default_config with
      port = 0;
      snapshots = [ h2 ];
      queue_capacity = 64;
      batch_max = 64;
      dispatch_delay_s = 0.25;
    }
  in
  with_server cfg (fun srv ->
      let fd = connect (Server.port srv) in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      let n = 5 in
      for id = 1 to n do
        send fd
          (query ~id ~deadline_ms:1 ~structure:"h2"
             { Index.a0 = 100.; a = [| 0.1 |] })
      done;
      let results, full, deadline, drain = count_responses fd n in
      check "every request answered" n (results + full + deadline + drain);
      check "all shed past deadline" n deadline;
      check "stats: shed_deadline" n (Server.stats srv).Server.shed_deadline)

(* Cross-request coalescing must be invisible in the answers: a pile
   of pipelined queries over several structures, executed as coalesced
   batches by 1, 2, or 4 dispatcher shards, demuxes to exactly the
   bit-level results the sequential single-query oracle produces —
   counts, cost words, and ids.  The dispatch stall parks the queries
   in the rings so real multi-request batches form (max_batch >= 2),
   proving the batched path actually ran.  On runtimes where shards
   clamp to one dispatcher the same contract holds with k = 1. *)
let test_e2e_coalescing_oracle () =
  let specs =
    [
      ("h2", 71, false);
      ("h3", 72, false);
      ("cert", 73, false);
      ("ptree", 74, true) (* ids demuxed out of a coalesced batch *);
    ]
  in
  let snaps =
    List.map
      (fun (name, seed, want_ids) ->
        (name, build_snapshot name ~n:384 ~seed, want_ids))
      specs
  in
  (* one oracle table for all dispatcher counts: id -> expectation *)
  let per_structure = 12 in
  let expected = Hashtbl.create 64 in
  let queries = ref [] in
  List.iteri
    (fun si (name, path, want_ids) ->
      let oracle = load_resident path in
      let qs = Meta.replay_queries oracle ~fraction:0.05 ~count:per_structure in
      Array.iteri
        (fun i q ->
          let id = (100 * (si + 1)) + i in
          let r = Query_engine.domain_reporter () in
          Emio.Reporter.clear r;
          let c =
            if want_ids then Query_engine.run_one ~reporter:r oracle.Meta.inst q
            else Query_engine.run_one oracle.Meta.inst q
          in
          let ids =
            if want_ids then begin
              let a = Emio.Reporter.to_array r in
              Array.sort compare a;
              a
            end
            else [||]
          in
          Hashtbl.replace expected id (name, want_ids, c, ids);
          queries := (id, name, want_ids, q) :: !queries)
        qs)
    snaps;
  (* interleave structures so coalesced batches are mixed and the
     per-structure grouping has to demux *)
  let queries =
    List.sort (fun (a, _, _, _) (b, _, _, _) -> compare (a mod 100, a) (b mod 100, b)) !queries
  in
  let total = List.length queries in
  List.iter
    (fun k ->
      let cfg =
        {
          Server.default_config with
          port = 0;
          snapshots = List.map (fun (_, p, _) -> p) snaps;
          dispatchers = k;
          batch_max = 16;
          coalesce_us = 20_000;
          default_deadline_ms = 30_000;
          dispatch_delay_s = 0.05;
        }
      in
      with_server cfg (fun srv ->
          let eff = Server.effective_dispatchers srv in
          Alcotest.(check bool)
            (Printf.sprintf "k=%d: effective dispatchers sane" k)
            true
            (eff >= 1 && eff <= k);
          let fd = connect (Server.port srv) in
          Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
          List.iter
            (fun (id, name, want_ids, q) ->
              send fd (query ~want_ids ~id ~structure:name q))
            queries;
          for _ = 1 to total do
            match recv fd with
            | Protocol.Result res -> (
                match Hashtbl.find_opt expected res.id with
                | None -> Alcotest.failf "k=%d: unknown id %d" k res.id
                | Some (name, want_ids, c, ids) ->
                    let label f =
                      Printf.sprintf "k=%d %s id %d: %s" k name res.id f
                    in
                    check (label "count") c.Query_engine.result res.count;
                    check (label "reads") c.Query_engine.reads res.reads;
                    check (label "writes") c.Query_engine.writes res.writes;
                    check (label "hits") c.Query_engine.hits res.hits;
                    if want_ids then begin
                      let got = Array.copy res.ids in
                      Array.sort compare got;
                      Alcotest.(check (array int)) (label "ids") ids got
                    end
                    else check (label "no ids") 0 (Array.length res.ids))
            | m ->
                Alcotest.failf "k=%d: unexpected %s" k
                  (Format.asprintf "%a" Protocol.pp m)
          done;
          let st = Server.stats srv in
          check (Printf.sprintf "k=%d: all served" k) total st.Server.served;
          check (Printf.sprintf "k=%d: no errors" k) 0 st.Server.errors;
          Alcotest.(check bool)
            (Printf.sprintf "k=%d: real coalesced batches formed" k)
            true (st.Server.max_batch >= 2);
          Alcotest.(check bool)
            (Printf.sprintf "k=%d: fewer batches than requests" k)
            true
            (st.Server.batches < total)))
    [ 1; 2; 4 ]

(* the Stats verb: what loadgen stamps into BENCH_SERVE.json meta *)
let test_e2e_stats_query () =
  let h2 = build_snapshot "h2" ~n:256 ~seed:81 in
  let cfg =
    {
      Server.default_config with
      port = 0;
      snapshots = [ h2 ];
      dispatchers = 2;
      readers = 2;
    }
  in
  with_server cfg (fun srv ->
      let fd = connect (Server.port srv) in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      send fd (query ~id:1 ~structure:"h2" { Index.a0 = 100.; a = [| 0.1 |] });
      (match recv fd with
      | Protocol.Result r -> check "query answered" 1 r.id
      | m ->
          Alcotest.failf "expected a result, got %s"
            (Format.asprintf "%a" Protocol.pp m));
      send fd (Protocol.Stats_query { id = 42 });
      match recv fd with
      | Protocol.Stats { id; stats } ->
          check "stats id echoed" 42 id;
          check "stats: dispatchers" (Server.effective_dispatchers srv)
            stats.Protocol.dispatchers;
          check "stats: readers" (Server.effective_readers srv)
            stats.Protocol.readers;
          check "stats: domains" (Server.effective_domains srv)
            stats.Protocol.domains;
          check "stats: served so far" 1 stats.Protocol.served;
          Alcotest.(check bool) "stats: accepted >= 1" true
            (stats.Protocol.accepted >= 1)
      | m ->
          Alcotest.failf "expected Stats, got %s"
            (Format.asprintf "%a" Protocol.pp m))

(* stop() must drain: the queued backlog is executed and answered
   before connections close. *)
let test_e2e_drain () =
  let h2 = build_snapshot "h2" ~n:256 ~seed:51 in
  let cfg =
    {
      Server.default_config with
      port = 0;
      snapshots = [ h2 ];
      default_deadline_ms = 30_000;
      dispatch_delay_s = 0.2;
    }
  in
  let srv = Server.start cfg in
  let fd = connect (Server.port srv) in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let n = 3 in
  for id = 1 to n do
    send fd (query ~id ~structure:"h2" { Index.a0 = 100.; a = [| 0.1 |] })
  done;
  (* let the reader thread admit all three, then drain *)
  Thread.delay 0.1;
  Server.stop srv;
  let results, _, _, _ = count_responses fd n in
  check "backlog answered through drain" n results;
  check "stats: served" n (Server.stats srv).Server.served;
  (match Frame.read fd with
  | Error (Frame.Closed | Frame.Truncated _) -> ()
  | Ok m ->
      Alcotest.failf "expected close after drain, got %s"
        (Format.asprintf "%a" Protocol.pp m)
  | Error e ->
      Alcotest.failf "expected close after drain, got %s"
        (Frame.read_error_to_string e));
  (* stop is idempotent *)
  Server.stop srv

(* a request arriving during the drain is shed, not hung *)
let test_e2e_shed_while_draining () =
  let h2 = build_snapshot "h2" ~n:256 ~seed:61 in
  let cfg =
    {
      Server.default_config with
      port = 0;
      snapshots = [ h2 ];
      default_deadline_ms = 30_000;
      dispatch_delay_s = 0.4;
    }
  in
  let srv = Server.start cfg in
  let fd = connect (Server.port srv) in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  send fd (query ~id:1 ~structure:"h2" { Index.a0 = 100.; a = [| 0.1 |] });
  Thread.delay 0.1;
  let stopper = Thread.create (fun () -> Server.stop srv) () in
  (* stop() is now mid-drain, waiting out the 0.4 s dispatcher stall *)
  Thread.delay 0.1;
  send fd (query ~id:2 ~structure:"h2" { Index.a0 = 100.; a = [| 0.1 |] });
  let seen_drain = ref false and seen_result = ref false in
  for _ = 1 to 2 do
    match recv fd with
    | Protocol.Result r ->
        check "drained request" 1 r.id;
        seen_result := true
    | Protocol.Shed { id; reason = Protocol.Draining } ->
        check "late request" 2 id;
        seen_drain := true
    | m ->
        Alcotest.failf "unexpected response %s"
          (Format.asprintf "%a" Protocol.pp m)
  done;
  Thread.join stopper;
  Alcotest.(check bool) "backlog served" true !seen_result;
  Alcotest.(check bool) "late arrival shed as Draining" true !seen_drain

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_flipped_byte;
          Alcotest.test_case "roundtrip of a known message" `Quick (fun () ->
              match Frame.decode (Frame.encode sample_msg) with
              | Ok m -> Alcotest.check msg_testable "sample" sample_msg m
              | Error e -> Alcotest.fail (Frame.read_error_to_string e));
        ] );
      ( "frame rejection",
        [
          Alcotest.test_case "truncation" `Quick test_truncation;
          Alcotest.test_case "oversized" `Quick test_oversized;
          Alcotest.test_case "malformed" `Quick test_malformed;
        ] );
      ( "frame streaming",
        [
          Alcotest.test_case "incremental parse" `Quick test_parse_incremental;
          Alcotest.test_case "partial and blocked writes" `Quick
            test_write_some_partial_and_blocked;
          Alcotest.test_case "write to a closed peer" `Quick
            test_write_some_closed_peer;
        ] );
      ( "admission",
        [
          Alcotest.test_case "fifo and full" `Quick test_admission_fifo_and_full;
          Alcotest.test_case "close and drain" `Quick
            test_admission_close_and_drain;
          Alcotest.test_case "concurrent pushers" `Quick
            test_admission_concurrent;
          Alcotest.test_case "concurrent consumers" `Quick
            test_admission_multi_consumer;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "results match the oracle" `Quick test_e2e_oracle;
          Alcotest.test_case "typed rejections" `Quick test_e2e_rejections;
          Alcotest.test_case "coalesced batches match the oracle" `Quick
            test_e2e_coalescing_oracle;
          Alcotest.test_case "stats query" `Quick test_e2e_stats_query;
          Alcotest.test_case "queue-full shedding" `Quick
            test_e2e_queue_full_shed;
          Alcotest.test_case "deadline shedding" `Quick test_e2e_deadline_shed;
          Alcotest.test_case "graceful drain" `Quick test_e2e_drain;
          Alcotest.test_case "shed while draining" `Quick
            test_e2e_shed_while_draining;
          Alcotest.test_case "every snapshot layout reopens" `Quick
            test_every_layout;
        ] );
    ]

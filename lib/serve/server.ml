module Index = Lcsearch_index.Index
module Query_engine = Lcsearch_index.Query_engine
module Par = Lcsearch_index.Par

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

type config = {
  host : string;
  port : int;
  snapshots : string list;
  queue_capacity : int;
  batch_max : int;
  dispatchers : int;
  readers : int;
  coalesce_us : int;
  domains : int;
  default_deadline_ms : int;
  read_timeout_s : float;
  dispatch_delay_s : float;
  verbose : bool;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7227;
    snapshots = [];
    queue_capacity = 1024;
    batch_max = 64;
    dispatchers = 1;
    readers = 2;
    coalesce_us = 0;
    domains = 1;
    default_deadline_ms = 200;
    read_timeout_s = 30.;
    dispatch_delay_s = 0.;
    verbose = false;
  }

type stats = {
  accepted : int;
  served : int;
  shed_full : int;
  shed_deadline : int;
  shed_drain : int;
  errors : int;
  batches : int;
  coalesced : int;
  max_batch : int;
}

type entry = {
  dim : int;
  inst : Index.instance;
  ring : int; (* which dispatcher shard owns this structure *)
}

type job = {
  conn : Conn.t;
  req : Protocol.request;
  enq_ns : int;
  deadline_ns : int;
}

type t = {
  cfg : config;
  domains : int;
  dispatchers : int;
  readers : int;
  listen_fd : Unix.file_descr;
  port : int;
  entries : (string * entry) list;
  rings : job Admission.t array; (* one bounded ring per dispatcher *)
  lock : Mutex.t; (* stats, draining, stopped *)
  mutable accepted : int;
  mutable served : int;
  mutable shed_full : int;
  mutable shed_deadline : int;
  mutable shed_drain : int;
  mutable errors : int;
  d_batches : int array; (* per dispatcher, under lock *)
  d_coalesced : int array;
  d_max_batch : int array;
  mutable draining : bool;
  mutable stopped : bool;
  mutable reactors : Reactor.t array;
  mutable acceptor : Thread.t option;
  mutable workers : unit Domain.t array; (* the dispatcher shards *)
}

let locked t f =
  Mutex.lock t.lock;
  let r = f () in
  Mutex.unlock t.lock;
  r

let log t fmt =
  if t.cfg.verbose then Printf.eprintf ("serve: " ^^ fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

(* ---------- request handling (reactor threads) ---------- *)

let shed t conn ~id reason =
  locked t (fun () ->
      match (reason : Protocol.shed_reason) with
      | Queue_full -> t.shed_full <- t.shed_full + 1
      | Deadline_exceeded -> t.shed_deadline <- t.shed_deadline + 1
      | Draining -> t.shed_drain <- t.shed_drain + 1);
  ignore (Conn.send conn (Protocol.Shed { id; reason }))

let reject t conn ~id code message =
  locked t (fun () -> t.errors <- t.errors + 1);
  ignore (Conn.send conn (Protocol.Error { id; code; message }))

let stats t =
  locked t (fun () ->
      let sum a = Array.fold_left ( + ) 0 a in
      let maxi a = Array.fold_left max 0 a in
      {
        accepted = t.accepted;
        served = t.served;
        shed_full = t.shed_full;
        shed_deadline = t.shed_deadline;
        shed_drain = t.shed_drain;
        errors = t.errors;
        batches = sum t.d_batches;
        coalesced = sum t.d_coalesced;
        max_batch = maxi t.d_max_batch;
      })

let server_stats t : Protocol.server_stats =
  let s = stats t in
  {
    dispatchers = t.dispatchers;
    readers = t.readers;
    domains = t.domains;
    accepted = s.accepted;
    served = s.served;
    shed_full = s.shed_full;
    shed_deadline = s.shed_deadline;
    shed_drain = s.shed_drain;
    errors = s.errors;
    batches = s.batches;
    coalesced = s.coalesced;
    max_batch = s.max_batch;
  }

let handle_query t conn (q : Protocol.request) =
  match List.assoc_opt q.structure t.entries with
  | None ->
      reject t conn ~id:q.id Protocol.Unknown_structure
        (Printf.sprintf "unknown structure %S (serving: %s)" q.structure
           (String.concat ", " (List.map fst t.entries)))
  | Some entry ->
      if Array.length q.a + 1 <> entry.dim then
        reject t conn ~id:q.id Protocol.Bad_dimension
          (Printf.sprintf "%s queries have dimension %d, got %d" q.structure
             entry.dim
             (Array.length q.a + 1))
      else if
        (not (Float.is_finite q.a0)) || not (Array.for_all Float.is_finite q.a)
      then
        reject t conn ~id:q.id Protocol.Bad_request
          "non-finite query coefficient"
      else begin
        let now = now_ns () in
        let ms =
          if q.deadline_ms > 0 then q.deadline_ms else t.cfg.default_deadline_ms
        in
        let job =
          { conn; req = q; enq_ns = now; deadline_ns = now + (ms * 1_000_000) }
        in
        if locked t (fun () -> t.draining) then shed t conn ~id:q.id Draining
        else
          match Admission.push t.rings.(entry.ring) job with
          | Admission.Accepted ->
              locked t (fun () -> t.accepted <- t.accepted + 1)
          | Admission.Full -> shed t conn ~id:q.id Queue_full
          | Admission.Closed -> shed t conn ~id:q.id Draining
      end

let on_msg t conn (msg : Protocol.msg) =
  match msg with
  | Protocol.Query q -> handle_query t conn q
  | Protocol.Stats_query { id } ->
      ignore (Conn.send conn (Protocol.Stats { id; stats = server_stats t }))
  | Protocol.Result _ | Protocol.Shed _ | Protocol.Error _ | Protocol.Stats _
    ->
      reject t conn ~id:0 Protocol.Bad_request
        "clients send Query or Stats_query frames"

let on_broken t conn err =
  (* a torn length-prefixed stream cannot be resynced: explain, hang up *)
  reject t conn ~id:0 Protocol.Bad_request (Frame.read_error_to_string err);
  Conn.request_close conn

(* ---------- dispatch (one shard per ring) ---------- *)

let respond t job (c : Query_engine.cost) ids =
  locked t (fun () -> t.served <- t.served + 1);
  ignore
    (Conn.send job.conn
       (Protocol.Result
          {
            id = job.req.id;
            count = c.Query_engine.result;
            reads = c.Query_engine.reads;
            writes = c.Query_engine.writes;
            hits = c.Query_engine.hits;
            elapsed_ns = now_ns () - job.enq_ns;
            ids;
          }))

let query_of (j : job) = { Index.a0 = j.req.a0; a = j.req.a }

(* Fan a count-only batch over the domain pool when this shard wins
   the pool lease; otherwise run it inline.  Either way the costs are
   bit-identical (the parallel-equivalence suites pin that), so
   losing the lease is a throughput event, never a correctness one.
   run_batch shares one traversal among the requests of a batch that
   carry identical query planes, on every structure. *)
let run_counts t entry qs =
  if t.domains > 1 && Par.try_acquire () then
    Fun.protect
      ~finally:(fun () -> Par.release ())
      (fun () -> Query_engine.run_batch ~domains:t.domains entry.inst qs)
  else Query_engine.run_batch entry.inst qs

let execute_group t entry jobs =
  let with_ids, count_only =
    List.partition (fun j -> j.req.want_ids) jobs
  in
  (match count_only with
  | [] -> ()
  | _ ->
      let arr = Array.of_list count_only in
      let qs = Array.map query_of arr in
      let costs = run_counts t entry qs in
      Array.iteri (fun i j -> respond t j costs.(i) [||]) arr);
  List.iter
    (fun j ->
      let r = Query_engine.domain_reporter () in
      Emio.Reporter.clear r;
      let c = Query_engine.run_one ~reporter:r entry.inst (query_of j) in
      respond t j c (Emio.Reporter.to_array r))
    with_ids

let execute_batch t d jobs =
  (* Unix.sleepf, not Thread.delay: dispatcher shards are domains and
     need no thread machinery for the test-hook sleep *)
  if t.cfg.dispatch_delay_s > 0. then Unix.sleepf t.cfg.dispatch_delay_s;
  let now = now_ns () in
  let live, expired = List.partition (fun j -> j.deadline_ns >= now) jobs in
  List.iter
    (fun j -> shed t j.conn ~id:j.req.id Protocol.Deadline_exceeded)
    expired;
  let n_live = List.length live in
  locked t (fun () ->
      t.d_batches.(d) <- t.d_batches.(d) + 1;
      if n_live > 1 then t.d_coalesced.(d) <- t.d_coalesced.(d) + n_live;
      if n_live > t.d_max_batch.(d) then t.d_max_batch.(d) <- n_live);
  (* group by structure, preserving arrival order within a group *)
  let groups = ref [] in
  List.iter
    (fun j ->
      match List.assoc_opt j.req.structure !groups with
      | Some cell -> cell := j :: !cell
      | None -> groups := (j.req.structure, ref [ j ]) :: !groups)
    live;
  List.iter
    (fun (name, cell) ->
      let entry = List.assoc name t.entries in
      let jobs = List.rev !cell in
      try execute_group t entry jobs
      with exn ->
        (* a query must never kill the dispatcher: fail the batch's
           requests individually and keep serving *)
        let message =
          Printf.sprintf "query execution failed: %s" (Printexc.to_string exn)
        in
        List.iter
          (fun j -> reject t j.conn ~id:j.req.id Protocol.Bad_request message)
          jobs)
    (List.rev !groups)

(* After the first pop, optionally linger for more arrivals on the
   same ring so cross-request batches form — bounded by the coalescing
   window *and* the earliest queued deadline, so a request is never
   held past a budget it could still meet.  With [coalesce_us = 0]
   (the default) a batch is exactly whatever one pop returned, the
   pre-coalescing behaviour. *)
let coalesce t ring first =
  let bmax = t.cfg.batch_max in
  let n0 = List.length first in
  if t.cfg.coalesce_us <= 0 || n0 >= bmax then first
  else begin
    let window_end = now_ns () + (t.cfg.coalesce_us * 1000) in
    let rec fill acc n =
      if n >= bmax then acc
      else begin
        let earliest =
          List.fold_left (fun m j -> min m j.deadline_ns) max_int acc
        in
        let wait_s =
          float_of_int (min window_end earliest - now_ns ()) /. 1e9
        in
        if wait_s <= 0. then acc
        else
          match Admission.pop_batch ring ~max:(bmax - n) ~timeout:wait_s with
          | Admission.Items more -> fill (acc @ more) (n + List.length more)
          | Admission.Timeout | Admission.Drained -> acc
      end
    in
    fill first n0
  end

let dispatcher_loop t d =
  let ring = t.rings.(d) in
  let rec go () =
    match Admission.pop_batch ring ~max:t.cfg.batch_max ~timeout:0.1 with
    | Admission.Drained -> ()
    | Admission.Timeout -> go ()
    | Admission.Items jobs ->
        execute_batch t d (coalesce t ring jobs);
        go ()
  in
  go ()

(* ---------- accept ---------- *)

let configure_client_fd fd =
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  Unix.set_nonblock fd

(* Park in select with a short timeout rather than in accept, so drain
   is noticed promptly even on platforms where closing a listening fd
   does not reliably unblock a parked accept. *)
let acceptor_loop t =
  let next = ref 0 in
  let rec go () =
    if locked t (fun () -> t.draining) then ()
    else begin
      let ready =
        match Unix.select [ t.listen_fd ] [] [] 0.2 with
        | [ _ ], _, _ -> true
        | _ -> false
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
        | exception Unix.Unix_error (Unix.EBADF, _, _) -> false
      in
      if ready then begin
        match Unix.accept t.listen_fd with
        | fd, _ ->
            if locked t (fun () -> t.draining) then (
              try Unix.close fd with Unix.Unix_error _ -> ())
            else begin
              configure_client_fd fd;
              let conn = Conn.create fd in
              log t "accepted %s" (Conn.peer conn);
              (* round-robin across the reactor pool *)
              let r = t.reactors.(!next mod Array.length t.reactors) in
              incr next;
              Reactor.add r conn
            end
        | exception
            Unix.Unix_error
              ((Unix.ECONNABORTED | Unix.EINTR | Unix.EAGAIN), _, _) ->
            ()
        | exception Unix.Unix_error (Unix.EBADF, _, _) ->
            () (* listen fd closed under us: stop below *)
      end;
      go ()
    end
  in
  go ()

(* ---------- lifecycle ---------- *)

let load_entries cfg ~dispatchers =
  Diskstore.File_backend.set_resident_on_reopen true;
  let entries =
    Fun.protect
      ~finally:(fun () -> Diskstore.File_backend.set_resident_on_reopen false)
      (fun () ->
        List.map
          (fun path ->
            match Meta.load path with
            | Error m -> failwith m
            | Ok l ->
                ( l.Meta.name,
                  {
                    dim = l.Meta.dim;
                    inst = l.Meta.inst;
                    (* deterministic structure-name hash, so a
                       structure's requests always land on one shard
                       and stay FIFO relative to each other *)
                    ring = Hashtbl.hash l.Meta.name mod dispatchers;
                  } ))
          cfg.snapshots)
  in
  let rec dup_check = function
    | [] -> ()
    | (name, _) :: rest ->
        if List.mem_assoc name rest then
          failwith
            (Printf.sprintf
               "two snapshots serve structure %S: names must be unique" name);
        dup_check rest
  in
  dup_check entries;
  if entries = [] then failwith "no snapshots to serve";
  entries

let start (cfg : config) =
  (* a ring popped [~max:0] at a time never drains, and stop would
     wait on it forever *)
  if cfg.batch_max < 1 then
    failwith (Printf.sprintf "batch size must be >= 1 (got %d)" cfg.batch_max);
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let dispatchers = max 1 cfg.dispatchers in
  let readers = max 1 cfg.readers in
  let entries = load_entries cfg ~dispatchers in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let t =
    try
      Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
      let addr = Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port) in
      Unix.bind listen_fd addr;
      Unix.listen listen_fd 128;
      let port =
        match Unix.getsockname listen_fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> cfg.port
      in
      {
        cfg;
        domains = max 1 cfg.domains;
        dispatchers;
        readers;
        listen_fd;
        port;
        entries;
        rings = Array.init dispatchers (fun _ -> Admission.create cfg.queue_capacity);
        lock = Mutex.create ();
        accepted = 0;
        served = 0;
        shed_full = 0;
        shed_deadline = 0;
        shed_drain = 0;
        errors = 0;
        d_batches = Array.make dispatchers 0;
        d_coalesced = Array.make dispatchers 0;
        d_max_batch = Array.make dispatchers 0;
        draining = false;
        stopped = false;
        reactors = [||];
        acceptor = None;
        workers = [||];
      }
    with exn ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      raise exn
  in
  t.reactors <-
    Array.init readers (fun _ ->
        Reactor.start ~idle_timeout_s:cfg.read_timeout_s ~on_msg:(on_msg t)
          ~on_broken:(on_broken t)
          ~log:(fun m -> log t "%s" m)
          ());
  t.workers <-
    Array.init dispatchers (fun d ->
        Domain.spawn (fun () -> dispatcher_loop t d));
  t.acceptor <- Some (Thread.create acceptor_loop t);
  t

let port t = t.port
let effective_domains t = t.domains
let effective_dispatchers t = t.dispatchers
let effective_readers t = t.readers
let structures t = List.map (fun (name, e) -> (name, e.dim)) t.entries

let stop t =
  let first =
    locked t (fun () ->
        if t.stopped then false
        else begin
          t.stopped <- true;
          t.draining <- true;
          true
        end)
  in
  if first then begin
    (* 1. no new requests: reactors shed Draining, pushes return Closed *)
    Array.iter Admission.close t.rings;
    (* 2. each dispatcher shard finishes its backlog, then sees
       Drained; their responses land in the conn outboxes while the
       reactors are still flushing *)
    Array.iter Domain.join t.workers;
    (* 3. tear down the edges: acceptor, then reactors (which flush
       remaining outboxes bounded by the write grace), then the fds *)
    (match t.acceptor with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    Array.iter Reactor.stop t.reactors;
    Array.iter Reactor.join t.reactors;
    Array.iter Admission.dispose t.rings
  end

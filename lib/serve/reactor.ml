(* One event-loop thread multiplexing many connections over
   Unix.select: the replacement for thread-per-connection readers.
   The server runs a small fixed pool of these and assigns accepted
   connections round-robin; each reactor owns its connections' read
   side outright (accumulators need no locks) and shares their write
   side with the dispatcher shards through the Conn outbox.

   The loop parks in select over its connections plus a self-pipe.
   Any byte on the pipe means "state changed, recompute the fd sets":
   a new connection was registered, a dispatcher's send left residue
   that needs a writability watch, a close was requested, or stop was
   called.  Like the Admission pipe, byte accounting is sloppy on
   purpose — the loop re-derives everything from shared state each
   round, so lost or extra wakeups are harmless.

   Note the select cap: fds number >= FD_SETSIZE (1024) cannot be
   watched.  A few thousand concurrent connections therefore need
   several reactors *and* an ulimit below the cap per process; see
   DESIGN.md §3j for the ceiling discussion. *)

type t = {
  mutable conns : Conn.t list; (* guarded by m *)
  m : Mutex.t;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  mutable stopping : bool; (* guarded by m *)
  mutable stop_at : float; (* grace deadline, set by stop *)
  mutable thread : Thread.t option;
  idle_timeout_s : float;
  on_msg : Conn.t -> Protocol.msg -> unit;
  on_broken : Conn.t -> Frame.read_error -> unit;
  log : string -> unit;
}

let wake_byte = Bytes.make 1 '!'

(* How long {!stop} keeps flushing response outboxes before it closes
   the connections anyway. *)
let drain_grace_s = 10.

let wake t =
  try ignore (Unix.single_write t.pipe_w wake_byte 0 1)
  with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) -> ()

let drain_pipe t =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read t.pipe_r b 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()
  in
  go ()

(* Drain complete frames out of the accumulator, then try to read
   more; bounded refills per readiness event so one firehose client
   cannot starve the rest of the loop. *)
let service_read t conn =
  let rec frames () =
    if Conn.alive conn && not (Conn.closing conn) then
      match Conn.next_frame conn with
      | `Msg msg ->
          t.on_msg conn msg;
          frames ()
      | `More -> ()
      | `Broken e -> t.on_broken conn e
  in
  let rec refills budget =
    if budget > 0 && Conn.alive conn && not (Conn.closing conn) then
      match Conn.refill conn with
      | `Data ->
          Conn.touch conn (Unix.gettimeofday ());
          frames ();
          refills (budget - 1)
      | `Blocked -> ()
      | `Eof ->
          if Conn.has_partial conn then
            t.log
              (Printf.sprintf "closing %s: EOF mid-frame (truncated stream)"
                 (Conn.peer conn));
          Conn.close conn
  in
  refills 8

let loop t =
  let rec go () =
    Mutex.lock t.m;
    let stopping = t.stopping and stop_at = t.stop_at in
    let conns = t.conns in
    Mutex.unlock t.m;
    let now = Unix.gettimeofday () in
    (* cull: dead connections; closing connections whose outbox
       flushed; idle connections past the read timeout *)
    let dead, live =
      List.partition
        (fun c ->
          (not (Conn.alive c))
          || (Conn.closing c && not (Conn.wants_write c))
          || ((not stopping)
             && t.idle_timeout_s > 0.
             && now -. Conn.last_rx c > t.idle_timeout_s))
        conns
    in
    List.iter
      (fun c ->
        if Conn.alive c && not (Conn.closing c) then
          t.log
            (Printf.sprintf "closing %s: idle for %.0fs" (Conn.peer c)
               t.idle_timeout_s);
        Conn.close c;
        Conn.close_fd c)
      dead;
    if dead <> [] then begin
      Mutex.lock t.m;
      t.conns <- List.filter (fun c -> not (List.memq c dead)) t.conns;
      Mutex.unlock t.m
    end;
    let finished =
      stopping
      && (List.for_all (fun c -> not (Conn.wants_write c)) live
         || now > stop_at)
    in
    if finished then begin
      (* flushed (or grace expired): hang up and exit *)
      Mutex.lock t.m;
      let remaining = t.conns in
      t.conns <- [];
      Mutex.unlock t.m;
      List.iter
        (fun c ->
          Conn.close c;
          Conn.close_fd c)
        remaining
    end
    else begin
      let rfds =
        t.pipe_r
        ::
        (if stopping then []
         else
           List.filter_map
             (fun c ->
               if Conn.alive c && not (Conn.closing c) then Some (Conn.fd c)
               else None)
             live)
      in
      let wfds =
        List.filter_map
          (fun c -> if Conn.wants_write c then Some (Conn.fd c) else None)
          live
      in
      let tick = if stopping then 0.05 else 0.2 in
      let readable, writable =
        match Unix.select rfds wfds [] tick with
        | r, w, _ -> (r, w)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
        | exception Unix.Unix_error (Unix.EBADF, _, _) ->
            (* a conn died between snapshot and select: rescan *)
            ([], [])
      in
      if List.memq t.pipe_r readable then drain_pipe t;
      List.iter
        (fun c -> if List.memq (Conn.fd c) writable then Conn.flush c)
        live;
      if not stopping then
        List.iter
          (fun c -> if List.memq (Conn.fd c) readable then service_read t c)
          live;
      go ()
    end
  in
  go ()

let start ~idle_timeout_s ~on_msg ~on_broken ~log () =
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  let t =
    {
      conns = [];
      m = Mutex.create ();
      pipe_r;
      pipe_w;
      stopping = false;
      stop_at = infinity;
      thread = None;
      idle_timeout_s;
      on_msg;
      on_broken;
      log;
    }
  in
  t.thread <- Some (Thread.create loop t);
  t

let add t conn =
  Conn.on_wake conn (fun () -> wake t);
  Mutex.lock t.m;
  t.conns <- conn :: t.conns;
  Mutex.unlock t.m;
  wake t

let stop t =
  Mutex.lock t.m;
  if not t.stopping then begin
    t.stopping <- true;
    t.stop_at <- Unix.gettimeofday () +. drain_grace_s
  end;
  Mutex.unlock t.m;
  wake t

let join t =
  (match t.thread with Some th -> Thread.join th | None -> ());
  t.thread <- None;
  (try Unix.close t.pipe_w with Unix.Unix_error _ -> ());
  try Unix.close t.pipe_r with Unix.Unix_error _ -> ()

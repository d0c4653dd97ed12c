(* One accepted client connection under the reactor model: a
   non-blocking socket, a read accumulator owned by the connection's
   reactor thread, and a locked write outbox that any thread — the
   reactor, a dispatcher shard answering a query, a reader rejecting a
   frame — can append encoded frames to.  A send flushes
   opportunistically: in the common case the socket buffer has room
   and the response leaves on the sender's own thread; only the
   residue of a partial write waits for the reactor's writability
   notification. *)

(* Queued unwritten response bytes past which a peer that is not
   reading is dropped. *)
let max_outbox = 8 * 1024 * 1024

type t = {
  fd : Unix.file_descr;
  peer : string;
  m : Mutex.t; (* outbox, offsets, flags *)
  outbox : Bytes.t Queue.t; (* whole encoded frames awaiting the wire *)
  mutable out_off : int; (* bytes of the queue head already written *)
  mutable out_bytes : int; (* total unwritten bytes across the queue *)
  mutable alive : bool; (* false: peer gone, sends are no-ops *)
  mutable closing : bool; (* stop reading; hang up once flushed *)
  mutable wake : unit -> unit; (* reactor wakeup, set on registration *)
  mutable last_rx : float; (* for the reactor's idle scan *)
  (* read side: touched only by the owning reactor thread, no lock *)
  mutable acc : Bytes.t;
  mutable acc_len : int;
}

let create fd =
  let peer =
    match Unix.getpeername fd with
    | Unix.ADDR_INET (a, p) ->
        Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
    | Unix.ADDR_UNIX s -> s
    | exception Unix.Unix_error _ -> "?"
  in
  {
    fd;
    peer;
    m = Mutex.create ();
    outbox = Queue.create ();
    out_off = 0;
    out_bytes = 0;
    alive = true;
    closing = false;
    wake = (fun () -> ());
    last_rx = Unix.gettimeofday ();
    acc = Bytes.create 4096;
    acc_len = 0;
  }

let fd t = t.fd
let peer t = t.peer
let alive t = t.alive
let closing t = t.closing
let on_wake t f = t.wake <- f
let touch t now = t.last_rx <- now
let last_rx t = t.last_rx

(* Called with [t.m] held. *)
let die_locked t =
  t.alive <- false;
  Queue.clear t.outbox;
  t.out_off <- 0;
  t.out_bytes <- 0;
  try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

(* Write queued frames until the socket blocks or the queue empties.
   Called with [t.m] held.  A partial write leaves [out_off] mid-frame
   and returns — the reactor watches the fd for writability and calls
   {!flush} to resume. *)
let rec flush_locked t =
  if t.alive && not (Queue.is_empty t.outbox) then begin
    let head = Queue.peek t.outbox in
    let len = Bytes.length head - t.out_off in
    match Frame.write_some t.fd head t.out_off len with
    | `Wrote n when n = len ->
        ignore (Queue.pop t.outbox);
        t.out_off <- 0;
        t.out_bytes <- t.out_bytes - n;
        flush_locked t
    | `Wrote 0 -> () (* EINTR: the next select round retries *)
    | `Wrote n ->
        (* partial write: the socket buffer filled mid-frame *)
        t.out_off <- t.out_off + n;
        t.out_bytes <- t.out_bytes - n
    | `Blocked -> ()
    | `Closed -> die_locked t
  end

let send t msg =
  let buf = Frame.encode msg in
  Mutex.lock t.m;
  let ok =
    if not t.alive then false
    else if t.out_bytes + Bytes.length buf > max_outbox then begin
      (* the peer is not reading its responses: drop it rather than
         buffer without bound *)
      die_locked t;
      false
    end
    else begin
      Queue.push buf t.outbox;
      t.out_bytes <- t.out_bytes + Bytes.length buf;
      flush_locked t;
      t.alive
    end
  in
  let residue = t.out_bytes > 0 in
  Mutex.unlock t.m;
  if residue then t.wake ();
  ok

let flush t =
  Mutex.lock t.m;
  flush_locked t;
  Mutex.unlock t.m

let wants_write t =
  Mutex.lock t.m;
  let w = t.alive && t.out_bytes > 0 in
  Mutex.unlock t.m;
  w

let request_close t =
  t.closing <- true;
  t.wake ()

let close t =
  Mutex.lock t.m;
  if t.alive then die_locked t;
  Mutex.unlock t.m

let close_fd t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* ---------- read side (reactor thread only) ---------- *)

let refill t =
  let free = Bytes.length t.acc - t.acc_len in
  if free < 4096 then begin
    let grown = Bytes.create (2 * Bytes.length t.acc) in
    Bytes.blit t.acc 0 grown 0 t.acc_len;
    t.acc <- grown
  end;
  match Unix.read t.fd t.acc t.acc_len (Bytes.length t.acc - t.acc_len) with
  | 0 -> `Eof
  | n ->
      t.acc_len <- t.acc_len + n;
      `Data
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      `Blocked
  | exception
      Unix.Unix_error
        ( ( Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF | Unix.ENOTCONN
          | Unix.ESHUTDOWN ),
          _,
          _ ) ->
      `Eof

let next_frame t =
  match Frame.parse t.acc t.acc_len with
  | Frame.Parsed (msg, used) ->
      let rest = t.acc_len - used in
      if rest > 0 then Bytes.blit t.acc used t.acc 0 rest;
      t.acc_len <- rest;
      `Msg msg
  | Frame.Need _ -> `More
  | Frame.Broken e -> `Broken e

let has_partial t = t.acc_len > 0

(* The open-loop wire client for serve_zipf: one thread, one
   non-blocking connection, driven by [select] over the public
   Frame/Protocol codecs.

   Each request has a due time fixed before the phase starts (a
   constant inter-arrival gap at the phase rate).  Latency is measured
   from the due time, not from the moment the write happened, so a
   generator stall is charged to every request it delays; how late the
   generator actually wrote each request is recorded separately as a
   validity check. *)

open Serve

type conn = {
  fd : Unix.file_descr;
  mutable out : Bytes.t;  (* pending frame bytes [out_lo, out_hi) *)
  mutable out_lo : int;
  mutable out_hi : int;
  mutable inb : Bytes.t;  (* read accumulator [0, in_len) *)
  mutable in_len : int;
}

let connect ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.set_nonblock fd;
  {
    fd;
    out = Bytes.create 65536;
    out_lo = 0;
    out_hi = 0;
    inb = Bytes.create 65536;
    in_len = 0;
  }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let enqueue c msg =
  let f = Frame.encode msg in
  let len = Bytes.length f in
  if c.out_hi + len > Bytes.length c.out then begin
    let live = c.out_hi - c.out_lo in
    let cap = max (Bytes.length c.out) (2 * (live + len)) in
    let b = Bytes.create cap in
    Bytes.blit c.out c.out_lo b 0 live;
    c.out <- b;
    c.out_lo <- 0;
    c.out_hi <- live
  end;
  Bytes.blit f 0 c.out c.out_hi len;
  c.out_hi <- c.out_hi + len

exception Conn_closed

let flush c =
  let rec go () =
    if c.out_lo < c.out_hi then
      match Frame.write_some c.fd c.out c.out_lo (c.out_hi - c.out_lo) with
      | `Wrote n ->
          c.out_lo <- c.out_lo + n;
          if n > 0 then go ()
      | `Blocked -> ()
      | `Closed -> raise Conn_closed
  in
  go ();
  if c.out_lo = c.out_hi then begin
    c.out_lo <- 0;
    c.out_hi <- 0
  end

(* Read what the socket has and hand every complete frame to [k]. *)
let drain c k =
  let rec read_more () =
    if c.in_len = Bytes.length c.inb then begin
      let b = Bytes.create (2 * Bytes.length c.inb) in
      Bytes.blit c.inb 0 b 0 c.in_len;
      c.inb <- b
    end;
    match Unix.read c.fd c.inb c.in_len (Bytes.length c.inb - c.in_len) with
    | 0 -> raise Conn_closed
    | n ->
        c.in_len <- c.in_len + n;
        read_more ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_more ()
    | exception Unix.Unix_error _ -> raise Conn_closed
  in
  read_more ();
  let rec parse () =
    match Frame.parse c.inb c.in_len with
    | Frame.Parsed (msg, used) ->
        Bytes.blit c.inb used c.inb 0 (c.in_len - used);
        c.in_len <- c.in_len - used;
        k msg;
        parse ()
    | Frame.Need _ -> ()
    | Frame.Broken e -> failwith ("bad frame: " ^ Frame.read_error_to_string e)
  in
  parse ()

let msg_id = function
  | Protocol.Query q -> q.Protocol.id
  | Protocol.Result r -> r.id
  | Protocol.Shed s -> s.id
  | Protocol.Error e -> e.id
  | Protocol.Stats_query s -> s.id
  | Protocol.Stats s -> s.id

(* One blocking round trip, for set-up probes and idle RTTs. *)
let round_trip c msg =
  enqueue c msg;
  let want = msg_id msg in
  let got = ref None in
  while !got = None do
    flush c;
    let w = if c.out_lo < c.out_hi then [ c.fd ] else [] in
    (match Unix.select [ c.fd ] w [] 5.0 with
    | [], [], [] -> failwith "server did not answer within 5 s"
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    drain c (fun m -> if msg_id m = want then got := Some m)
  done;
  Option.get !got

(* {2 Open-loop phases} *)

type outcome = {
  due : int array;  (** ns, monotonic *)
  sent : int array;  (** when the write was issued; -1 if never *)
  recv : int array;  (** when the response frame was parsed; -1 if never *)
  resp : Protocol.msg option array;
  aborted : bool;  (** the backlog cap stopped the phase early *)
}

(* Run [n] requests due every [gap_ns] from [start], [make i] building
   request [i] (its id must be [id_base + i]).  The phase stops issuing
   early once more than [max_backlog] requests are outstanding — an
   overloaded ladder rung has then already failed — and waits at most
   [grace_s] after the last write for the stragglers.  [on_response i]
   runs as the response to request [i] lands, before it is stamped, so
   the hook's cost (the traced run's span log) counts in its latency. *)
let run_phase ?(on_response = fun _ -> ()) c ~id_base ~n ~start ~gap_ns
    ~max_backlog ~grace_s make =
  let due = Array.init n (fun i -> start + (i * gap_ns)) in
  let sent = Array.make n (-1) in
  let recv = Array.make n (-1) in
  let resp = Array.make n None in
  let next = ref 0 and answered = ref 0 and aborted = ref false in
  let on_msg m =
    let i = msg_id m - id_base in
    if i >= 0 && i < n && recv.(i) < 0 then begin
      on_response i;
      recv.(i) <- Kit.now_ns ();
      resp.(i) <- Some m;
      incr answered
    end
  in
  let give_up = ref max_int in
  while !answered < !next || (!next < n && not !aborted) do
    let now = Kit.now_ns () in
    if not !aborted then begin
      while !next < n && due.(!next) <= now && not !aborted do
        if !next - !answered > max_backlog then aborted := true
        else begin
          enqueue c (make !next);
          sent.(!next) <- now;
          incr next
        end
      done;
      if (!next = n || !aborted) && !give_up = max_int then
        give_up := now + int_of_float (grace_s *. 1e9)
    end;
    if now > !give_up then answered := !next (* stragglers count as failed *)
    else begin
      flush c;
      let timeout =
        if !next < n && not !aborted then
          Float.max 0. (Kit.s_of_ns (due.(!next) - now))
        else 0.05
      in
      let w = if c.out_lo < c.out_hi then [ c.fd ] else [] in
      (match Unix.select [ c.fd ] w [] timeout with
      | r, _, _ -> if r <> [] then drain c on_msg
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    end
  done;
  { due; sent; recv; resp; aborted = !aborted }

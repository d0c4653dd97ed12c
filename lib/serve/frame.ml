(* u32-LE length prefix + Protocol.codec payload.  The fd paths map
   every Unix-level failure mode to a typed result; the pure
   encode/decode pair exists so the rejection matrix (truncation,
   oversize, codec garbage) is testable without opening a socket. *)

(* Largest payload a frame may announce. *)
let frame_cap = 4 * 1024 * 1024

type read_error =
  | Closed
  | Timeout
  | Oversized of { length : int; max : int }
  | Truncated of { expected : int; got : int }
  | Malformed of string

let read_error_to_string = function
  | Closed -> "connection closed"
  | Timeout -> "read timeout"
  | Oversized { length; max } ->
      Printf.sprintf "frame of %d bytes exceeds the %d-byte cap" length max
  | Truncated { expected; got } ->
      Printf.sprintf "truncated frame: expected %d bytes, got %d" expected got
  | Malformed m -> "malformed frame: " ^ m

type write_error = [ `Closed | `Timeout ]

let encode msg =
  let payload = Emio.Codec.encode Protocol.codec msg in
  let len = Bytes.length payload in
  let out = Bytes.create (4 + len) in
  Bytes.set_int32_le out 0 (Int32.of_int len);
  Bytes.blit payload 0 out 4 len;
  out

let frame_length buf = Int32.to_int (Bytes.get_int32_le buf 0) land 0xffffffff

(* Incremental entry for the reactor's per-connection accumulators: a
   frame may straddle any number of reads, so parse the prefix we have
   and either hand back a complete message plus the bytes it consumed
   or say how many bytes would be needed before trying again. *)
type parsed =
  | Parsed of Protocol.msg * int  (** consumed bytes, prefix of the buffer *)
  | Need of int  (** total buffered bytes required before re-parsing *)
  | Broken of read_error  (** unrecoverable: the stream cannot resync *)

let parse buf len =
  if len < 4 then Need 4
  else begin
    let length = frame_length buf in
    if length > frame_cap then
      Broken (Oversized { length; max = frame_cap })
    else if len < 4 + length then Need (4 + length)
    else
      match Emio.Codec.decode Protocol.codec (Bytes.sub buf 4 length) with
      | msg -> Parsed (msg, 4 + length)
      | exception Emio.Codec.Decode m -> Broken (Malformed m)
  end

let decode ?(max_frame = frame_cap) buf =
  let got = Bytes.length buf in
  if got < 4 then Error (Truncated { expected = 4; got })
  else
    let length = frame_length buf in
    if length > max_frame then Error (Oversized { length; max = max_frame })
    else if got < 4 + length then Error (Truncated { expected = 4 + length; got })
    else if got > 4 + length then
      Error (Malformed "trailing bytes after the frame")
    else
      match Emio.Codec.decode Protocol.codec (Bytes.sub buf 4 length) with
      | msg -> Ok msg
      | exception Emio.Codec.Decode m -> Error (Malformed m)

(* Read exactly [len] bytes.  EOF before the first byte is a clean
   close; EOF after it is a torn frame — the caller can't resync a
   length-prefixed stream, so it reports Truncated and hangs up. *)
let read_exact fd buf len =
  let rec go pos =
    if pos = len then `Ok
    else
      match Unix.read fd buf pos (len - pos) with
      | 0 -> if pos = 0 then `Closed else `Short pos
      | n -> go (pos + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          `Timeout
      | exception
          Unix.Unix_error
            ( ( Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF | Unix.ENOTCONN
              | Unix.ESHUTDOWN ),
              _,
              _ ) ->
          if pos = 0 then `Closed else `Short pos
  in
  go 0

let read fd =
  let hdr = Bytes.create 4 in
  match read_exact fd hdr 4 with
  | `Closed -> Error Closed
  | `Timeout -> Error Timeout
  | `Short got -> Error (Truncated { expected = 4; got })
  | `Ok -> (
      let length = frame_length hdr in
      if length > frame_cap then
        Error (Oversized { length; max = frame_cap })
      else
        let payload = Bytes.create length in
        match read_exact fd payload length with
        | `Closed -> Error (Truncated { expected = length; got = 0 })
        | `Timeout -> Error Timeout
        | `Short got -> Error (Truncated { expected = length; got })
        | `Ok -> (
            match Emio.Codec.decode Protocol.codec payload with
            | msg -> Ok msg
            | exception Emio.Codec.Decode m -> Error (Malformed m)))

(* One non-blocking write attempt for the reactor's outbox flusher.
   EINTR maps to [`Wrote 0] (the caller's select loop retries), a full
   socket buffer to [`Blocked] (watch for writability), and a gone
   peer to [`Closed]. *)
let write_some fd buf pos len =
  match Unix.write fd buf pos len with
  | n -> `Wrote n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Wrote 0
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      `Blocked
  | exception
      Unix.Unix_error
        ( ( Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF | Unix.ENOTCONN
          | Unix.ESHUTDOWN ),
          _,
          _ ) ->
      `Closed

let write fd msg =
  let buf = encode msg in
  let len = Bytes.length buf in
  let rec go pos =
    if pos = len then Ok ()
    else
      match Unix.write fd buf pos (len - pos) with
      | n -> go (pos + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Error `Timeout
      | exception
          Unix.Unix_error
            ( ( Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF | Unix.ENOTCONN
              | Unix.ESHUTDOWN ),
              _,
              _ ) ->
          Error `Closed
  in
  go 0

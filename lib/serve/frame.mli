(** Length-prefixed framing of {!Protocol} messages over a stream.

    Every frame is a 4-byte little-endian payload length followed by
    the {!Protocol.codec} bytes.  The length is validated against a
    4 MiB cap {e before} the payload is read — a hostile or corrupt length can
    cost at most one rejected frame, never an unbounded allocation.

    Every way a read can go wrong is a constructor of {!read_error},
    never an escaping exception: clean EOF at a frame boundary is
    [Closed], EOF mid-frame is [Truncated], a blown [SO_RCVTIMEO] is
    [Timeout], a length over the cap is [Oversized], and payload bytes
    the codec rejects are [Malformed]. *)

type read_error =
  | Closed  (** orderly EOF between frames *)
  | Timeout  (** the fd's receive timeout expired *)
  | Oversized of { length : int; max : int }
  | Truncated of { expected : int; got : int }  (** EOF mid-frame *)
  | Malformed of string  (** codec rejection, message from {!Emio.Codec.Decode} *)

val read_error_to_string : read_error -> string

type write_error = [ `Closed | `Timeout ]

(** {2 Pure paths (unit-testable without sockets)} *)

val encode : Protocol.msg -> bytes
(** One complete frame: length prefix + payload. *)

val decode : ?max_frame:int -> bytes -> (Protocol.msg, read_error) result
(** Decode a buffer holding exactly one frame; extra trailing bytes are
    [Malformed], a short buffer is [Truncated].  [max_frame] defaults
    to the 4 MiB cap. *)

type parsed =
  | Parsed of Protocol.msg * int
      (** one complete frame occupying the first [n] buffered bytes *)
  | Need of int
      (** incomplete: re-parse once at least [n] bytes are buffered *)
  | Broken of read_error
      (** oversized length or codec garbage — a torn length-prefixed
          stream cannot resync, so the connection must hang up *)

val parse : bytes -> int -> parsed
(** [parse buf len] examines the first [len] bytes of a read
    accumulator.  Incremental: a frame may arrive over any number of
    socket reads, and the length is validated against the 4 MiB cap as
    soon as the 4-byte prefix is in, before any payload accumulates. *)

(** {2 File-descriptor paths} *)

val read : Unix.file_descr -> (Protocol.msg, read_error) result
(** Blocking read of one frame of at most 4 MiB (honors
    [SO_RCVTIMEO] if set). *)

val write : Unix.file_descr -> Protocol.msg -> (unit, write_error) result
(** Blocking write of one frame (honors [SO_SNDTIMEO] if set); EPIPE
    and connection resets map to [`Closed] — callers must have SIGPIPE
    ignored, which {!Server.start} and {!Loadgen.run} do. *)

val write_some :
  Unix.file_descr -> bytes -> int -> int -> [ `Wrote of int | `Blocked | `Closed ]
(** One write attempt for non-blocking outbox flushing: partial writes
    return the byte count ([`Wrote 0] on EINTR), a full socket buffer
    is [`Blocked] (park in select until writable), and EPIPE or a
    reset is [`Closed]. *)

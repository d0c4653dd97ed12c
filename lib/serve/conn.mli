(** One accepted client connection in the multiplexed-reader model: a
    non-blocking socket with a read accumulator (owned by the
    connection's reactor thread) and a bounded, locked write outbox
    that any thread may append responses to.

    Writes: {!send} encodes the frame, queues it, and flushes as much
    as the socket accepts right there on the calling thread — a
    dispatcher answering a query usually completes the write inline.
    The residue of a partial write (full socket buffer) stays queued;
    the reactor watches the fd for writability and {!flush}es the
    rest.  A peer that stops reading is dropped once its outbox
    exceeds the bound rather than buffering without limit.

    Reads: the reactor calls {!refill} when the fd is readable and
    drains complete frames with {!next_frame}; a frame may straddle
    any number of reads.

    A failed send or an explicit {!close} marks the connection dead;
    later sends become silent no-ops (the peer is gone — there is
    nobody to tell). *)

type t

val create : Unix.file_descr -> t
(** The fd should already be non-blocking (the acceptor's job).
    Queued unwritten response bytes are bounded at 8 MiB. *)

val fd : t -> Unix.file_descr
val peer : t -> string
val alive : t -> bool

val send : t -> Protocol.msg -> bool
(** Enqueue and opportunistically flush; never blocks.  [false] once
    the peer is gone (including an outbox overflow, which drops the
    connection). *)

val flush : t -> unit
(** Resume a partial write.  Reactor-called on writability; safe from
    any thread. *)

val wants_write : t -> bool
(** Unwritten outbox bytes remain — watch the fd for writability. *)

val on_wake : t -> (unit -> unit) -> unit
(** Set by the reactor at registration: called after a send leaves
    residue, so the event loop re-selects with this fd in its write
    set. *)

val request_close : t -> unit
(** Stop reading from the peer and hang up once the outbox flushes —
    the exit path for protocol errors that must still deliver their
    [Error] response. *)

val closing : t -> bool

val close : t -> unit
(** Mark dead, drop queued output, and [shutdown] both directions.
    Idempotent; does not close the fd. *)

val close_fd : t -> unit
(** Release the descriptor.  Exactly-once, by the reactor's cull. *)

val touch : t -> float -> unit
(** Record read activity (for the idle scan). *)

val last_rx : t -> float

(** {2 Read side — only the owning reactor thread} *)

val refill : t -> [ `Data | `Blocked | `Eof ]
(** One [read] into the accumulator, growing it as needed.  [`Eof]
    covers both orderly EOF and connection resets. *)

val next_frame :
  t -> [ `Msg of Protocol.msg | `More | `Broken of Frame.read_error ]
(** Extract the next complete frame from the accumulator, compacting
    consumed bytes.  [`More]: wait for another {!refill}. *)

val has_partial : t -> bool
(** Buffered bytes short of a complete frame — EOF now means a
    truncated stream, not a clean close. *)

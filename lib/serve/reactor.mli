(** An event-loop reader/writer thread multiplexing non-blocking
    connections over [Unix.select] — the replacement for
    thread-per-connection readers.  The server runs a small fixed pool
    and assigns accepted connections round-robin.

    Each reactor owns its connections' read side (accumulators are
    lock-free because only this thread touches them) and services
    their write side on writability, resuming the partial writes that
    dispatcher sends left behind.  [on_msg] runs on the reactor
    thread: it must not block (the server's handler validates and
    pushes to an {!Admission} ring, both non-blocking).

    Idle connections are culled after [idle_timeout_s] of read
    silence.  {!stop} enters drain: no more reads, outboxes keep
    flushing until empty or the grace expires, then every connection
    is closed and the thread exits.  Frames are capped at 4 MiB and the
    drain grace is 10 s. *)

type t

val start :
  idle_timeout_s:float ->
  on_msg:(Conn.t -> Protocol.msg -> unit) ->
  on_broken:(Conn.t -> Frame.read_error -> unit) ->
  log:(string -> unit) ->
  unit ->
  t
(** Spawn the loop.  [on_broken] handles unrecoverable stream errors
    (oversized length, codec garbage) — typically answer with an
    [Error] frame and {!Conn.request_close}. *)

val add : t -> Conn.t -> unit
(** Register an accepted connection (fd already non-blocking) and
    wire its wakeup to this reactor. *)

val stop : t -> unit
(** Begin drain (idempotent): stop reading, flush remaining responses
    for at most the 10 s grace, then close everything. *)

val join : t -> unit
(** Wait for the loop to exit and release the self-pipe. *)

(** The long-lived query server behind [lcsearch serve].

    Three layers scale the serve path (DESIGN.md §3j):

    - A small fixed pool of {!Reactor} event-loop threads multiplexes
      every accepted connection over non-blocking sockets — no
      thread-per-connection.  Reactors decode and validate
      {!Protocol.Query} frames and push jobs onto the admission rings;
      response frames written by dispatchers flush opportunistically,
      with partial-write residue resumed on writability.
    - K dispatcher shards, each its own [Domain] (so each has its own
      domain-local engine scratch), drain their own bounded
      {!Admission} ring.  Structures are
      hashed onto rings by name, so one structure's requests stay FIFO
      on one shard and query initiation no longer serializes behind a
      single dispatcher.
    - Cross-request coalescing: after popping, a shard may linger up
      to the coalescing window — never past the earliest queued
      deadline — to gather same-ring arrivals into one
      [run_batch] call, which runs one traversal per distinct query
      plane, so identical requests from different clients share it.
      Per-request costs stay bit-identical to the sequential [run_one]
      oracle (served snapshots are cache-free and resident, so batch
      order cannot leak into the charges).

    Every request gets exactly one response; overload is an explicit
    [Shed], never a hang (see DESIGN.md §3f for the admission state
    machine).

    Queries execute {e only} on the dispatcher shards (plus the domain
    pool the lease holder drives), which is what makes the engine's
    domain-local scratch state safe.  Every snapshot is reopened with
    resident payloads ({!Diskstore.File_backend.set_resident_on_reopen}):
    each block is decoded once at load and no query reads the buffer
    pool, which is what makes concurrent fan-out over a reopened
    snapshot safe. *)

type config = {
  host : string;
  port : int;  (** 0 = ephemeral; read the bound port with {!port} *)
  snapshots : string list;  (** snapshot files to serve, one structure each *)
  queue_capacity : int;  (** per-dispatcher admission ring capacity *)
  batch_max : int;  (** dispatcher batch size, at least 1 *)
  dispatchers : int;  (** dispatcher shards, at least 1 *)
  readers : int;  (** reactor event-loop threads, at least 1 *)
  coalesce_us : int;
      (** cross-request coalescing window in microseconds; 0 disables
          lingering (a batch is whatever one ring pop returned) *)
  domains : int;  (** fan-out for count-only batches *)
  default_deadline_ms : int;  (** for requests with [deadline_ms = 0] *)
  read_timeout_s : float;  (** per-connection idle timeout *)
  dispatch_delay_s : float;
      (** test hook: sleep this long before executing each batch, to
          deterministically provoke queue-full and deadline sheds *)
  verbose : bool;
}

val default_config : config

type stats = {
  accepted : int;
  served : int;
  shed_full : int;
  shed_deadline : int;
  shed_drain : int;
  errors : int;
  batches : int;  (** dispatcher batches executed, across all shards *)
  coalesced : int;
      (** requests that executed in a batch of more than one *)
  max_batch : int;  (** largest batch any shard executed *)
}

type t

val start : config -> t
(** Load the snapshots, bind, and spawn the acceptor, the reactor
    pool, and the dispatcher shards.  Raises [Failure] with a readable
    message if a snapshot cannot be served (unreadable, unknown kind,
    duplicate structure name) or [batch_max] is below 1. *)

val port : t -> int
(** The actually-bound port (useful with [config.port = 0]). *)

val effective_domains : t -> int
(** The domain count count-only batches fan out over:
    [config.domains], at least 1. *)

val effective_dispatchers : t -> int
(** Dispatcher shards actually running: [config.dispatchers], at
    least 1. *)

val effective_readers : t -> int
(** Reactor event-loop threads (at least 1). *)

val structures : t -> (string * int) list
(** Serving names and their dimensions. *)

val stats : t -> stats

val stop : t -> unit
(** Graceful drain: stop accepting connections and requests (new
    arrivals are shed with [Draining]), let every dispatcher shard
    finish its queued backlog — including in-flight coalesced batches
    — answer it, flush the response outboxes, then close every
    connection and join every thread.  Idempotent. *)

(** Scoped, per-query I/O accounting.

    The simulator's ambient counters ({!Io_stats}) are one mutable sink
    per store, shared by everything that touches the store — fine for a
    whole experiment, fragile for attributing I/O to a single query
    (the historical pattern was [Io_stats.reset] between queries, which
    silently misattributes I/O whenever two measurements interleave).

    A [Cost_ctx.t] fixes that: while installed with {!with_ctx}, every
    {!Io_stats} record — from any store, B-tree, or file backend — is
    mirrored into the context, giving exact scoped counts without
    touching the ambient counters (which therefore stay bit-identical
    to the pre-context behaviour).  Contexts nest; all installed
    contexts are charged, so an outer batch context accumulates the
    totals of the per-query contexts inside it.

    A context may also carry a {e trace sink}: structures and stores
    emit {!event}s (block touches, per-node visits, per-layer/level
    progress) that the sink receives in execution order — the basis for
    query plans, flamegraph-style breakdowns, and regression traces. *)

type event =
  | Block_read of { hit : bool }
      (** A store block access ([hit] = served by the LRU for free). *)
  | Block_write
  | Node of { label : string }
      (** A structure visited a node (e.g. ["ptree"]). *)
  | Level of { label : string }
      (** A structure advanced to its next layer/level (e.g. ["h2"]). *)

type t

val create : ?trace:(event -> unit) -> unit -> t
(** A fresh context with zeroed counters.  [trace], if given, receives
    every event emitted while the context is installed. *)

val with_ctx : t -> (unit -> 'r) -> 'r
(** Install [ctx] for the duration of the callback (exception-safe).
    Nested installs stack. *)

val unscoped : (unit -> 'r) -> 'r
(** Run the callback with every context installed on the calling
    domain masked (exception-safe).  For delegating layers that do
    work under private {!Io_stats} sinks and replay the totals with
    {!Io_stats.merge_into} afterwards: masking keeps the caller's
    contexts from also being charged directly for the share of the
    work that runs on the calling domain, so they see each I/O exactly
    once — and the same count whatever the fan-out was. *)

val reset : t -> unit
(** Zero every counter, leaving the trace sink in place.  A context
    that is [reset] between measurements reports exactly what a fresh
    one would — the batch engine installs one context per domain and
    resets it between queries instead of allocating per query. *)

val reads : t -> int
val writes : t -> int
val total : t -> int
val hits : t -> int
val bytes_read : t -> int

val active : unit -> bool
(** Is any context installed?  (Cheap; lets hot paths skip work.) *)

val tracing : unit -> bool
(** Is any installed context tracing?  Guard event construction with
    this to keep untraced queries allocation-free. *)

val emit : event -> unit
(** Deliver an event to every installed tracing context. *)

(** Mirroring hooks — called by {!Io_stats.record_read} etc.; not for
    general use. *)

val note_read : unit -> unit
val note_write : unit -> unit
val note_hit : unit -> unit
val note_bytes_read : int -> unit

val note_bulk :
  reads:int ->
  writes:int ->
  hits:int ->
  bytes_read:int ->
  unit
(** Charge every installed context with a batch of counts at once —
    how a delegating layer (see [Lcsearch_index.Shard]) replays I/O
    done under private accounting (e.g. on worker domains, whose
    thread-local context stacks never saw the caller's) into the
    caller's contexts. *)

val note_read_traced : unit -> bool
(** Like {!note_read} followed by {!tracing}, in a single stack walk —
    for the per-block hot paths.  Returns [true] iff some installed
    context is tracing (i.e. the caller should {!emit}). *)

val note_write_traced : unit -> bool
val note_hit_traced : unit -> bool

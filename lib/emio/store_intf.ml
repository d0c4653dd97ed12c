(* The byte-level backend signature behind Store: a pluggable "disk".

   The simulator keeps blocks as OCaml arrays and charges model I/Os;
   an external backend (Diskstore.File_backend) serves blocks that a
   snapshot already laid out on a real device, as codec-encoded bytes,
   and is free to cache them in a buffer pool and record physical I/O
   itself.  Backends are read-only: a snapshot file is written once,
   whole, by Diskstore.Snapshot.save.  They are passed around as
   first-class modules paired with their state (the [backend] GADT),
   so a single ['a Store.t] type covers every structure in the repo
   without functorizing each one. *)

module type BACKEND = sig
  type t

  val read : t -> int -> bytes
  (** Fetch a block payload.  Raises [Failure] on an unreadable or
      corrupt block (snapshot loading verifies checksums up front, so
      this only fires on concurrent file damage). *)

  val take_resident : t -> bytes array option
  (** [Some payloads] (indexed by block id) if the backend holds every
      payload in memory.  The caller becomes their only holder: the
      backend drops its own reference, and from then on the caller
      serves reads itself, charging each through {!charge_read}.
      [None] for a backend whose reads must go through {!read}. *)

  val charge_read : t -> int -> unit
  (** Record what [read] of this block would charge, without fetching
      it: the accounting half of a read whose payload the caller
      already holds (see {!take_resident}). *)

  val blocks_used : t -> int
  (** Number of blocks the backend holds. *)

  val drop_cache : t -> unit
  (** Empty any cache (buffer pool) the backend maintains. *)
end

type backend = Backend : (module BACKEND with type t = 'b) * 'b -> backend

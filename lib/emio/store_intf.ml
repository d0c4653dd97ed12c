(* The byte-level backend signature behind Store: a pluggable "disk".

   The simulator keeps blocks as OCaml arrays and charges model I/Os;
   an external backend (Diskstore.File_backend) receives each block
   already marshalled to bytes and is free to lay it out on a real
   device, cache it in a buffer pool, and record physical I/O itself.
   Backends are passed around as first-class modules paired with their
   state (the [backend] GADT), so a single ['a Store.t] type covers
   every structure in the repo without functorizing each one. *)

module type BACKEND = sig
  type t

  val name : t -> string
  (** Human-readable backend identifier (e.g. ["file:/tmp/h2.idx"]). *)

  val alloc : t -> bytes -> int
  (** Store a fresh block payload; returns its block id.  The backend
      records whatever physical I/O the allocation costs. *)

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
  (** Number of blocks allocated through this backend. *)

  val drop_cache : t -> unit
  (** Flush and empty any cache (buffer pool) the backend maintains. *)
end

type backend = Backend : (module BACKEND with type t = 'b) * 'b -> backend

let backend_name (Backend ((module B), b)) = B.name b

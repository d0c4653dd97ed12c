(** The file-backed implementation of {!Emio.Store_intf.BACKEND}.

    Each logical store block — already codec-encoded to bytes by
    {!Emio.Store} — occupies a span of consecutive checksummed pages in
    a {!Block_file}, read and written through a {!Buffer_pool}.  The
    block table (block id → first page, byte length) is kept in memory
    and persisted by {!Snapshot}.

    Plug it into any structure with
    {[
      let pool = Buffer_pool.create ~file ~policy:Lru ~capacity:64 in
      let be = File_backend.(backend (create pool)) in
      let t = Core.Halfspace2d.build ~stats ~block_size ~backend:be pts
    ]} *)

type t

val create : ?base_page:int -> Buffer_pool.t -> t
(** Fresh backend with an empty block table, allocating pages from
    [base_page] (default 0) upward. *)

val of_table :
  ?base_page:int -> ?payloads:bytes array -> table:(int * int) array ->
  Buffer_pool.t -> t
(** Reopen over an existing page layout (used by {!Snapshot.open_as}).
    [payloads], one per table entry, are the block bytes the caller
    has already read and verified; the backend holds them only until
    a store opened over it ({!Emio.Store.of_backend}) takes them
    through the backend's [take_resident] and decodes each block once.
    The backend's [read] always goes through the buffer pool. *)

val set_resident_on_reopen : bool -> unit
(** Process-wide switch: when [true], every subsequent
    {!Snapshot.open_as} reopens its backend resident, handing it the
    payload bytes its checksum pass read.  Flipped by [lcsearch serve]
    before loading the structures it will query concurrently. *)

val resident_on_reopen : unit -> bool
(** The current value of the {!set_resident_on_reopen} switch. *)

val backend : t -> Emio.Store_intf.backend
(** First-class module wrapper to pass to [Emio.Store.create ~backend]
    or [Emio.Store.of_backend]. *)

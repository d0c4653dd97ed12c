(** The file-backed implementation of {!Emio.Store_intf.BACKEND}: a
    read-only view of a snapshot's payload pages.

    Each logical store block — codec-encoded to bytes by
    {!Emio.Store.export_bytes} and written once by {!Snapshot.save} —
    occupies a span of consecutive checksummed pages in a
    {!Block_file}, read through a {!Buffer_pool}.  The block table
    (block id → first page, byte length) comes from the snapshot and
    never changes.

    {!Snapshot.open_as} builds one per reopened file and hands it to
    the structure's [of_skeleton], which opens its payload store over
    it:
    {[
      let store =
        Emio.Store.of_backend ~stats ~block_size ~codec
          (File_backend.backend fb)
    ]} *)

type t

val of_table :
  ?base_page:int -> ?payloads:bytes array -> table:(int * int) array ->
  Buffer_pool.t -> t
(** A view over an existing page layout (used by {!Snapshot.open_as}):
    block [i] spans pages from [base_page + fst table.(i)] (default
    base 0) and holds [snd table.(i)] bytes.  The table is not copied.
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
(** First-class module wrapper to pass to {!Emio.Store.of_backend}. *)

(** Fixed-size page I/O over a Unix file descriptor — the physical
    layer of the disk store.

    A file is an array of [page_size]-byte pages; each page carries an
    8-byte header (payload length + CRC-32 over the entire page except
    the CRC field itself, padding included) followed by the zero-padded
    payload, so every read is integrity-checked and a single flipped
    byte anywhere in a page — or corruption/truncation — surfaces as a
    typed {!read_error} instead of garbage data.  Every physical page
    transfer is recorded in the attached {!Emio.Io_stats}, including
    byte counts. *)

type t

type read_error =
  | Out_of_range of { page : int; pages : int }
  | Short_page of { page : int }  (** the file ends mid-page *)
  | Bad_checksum of { page : int }

val pp_read_error : Format.formatter -> read_error -> unit

val header_bytes : int
(** Per-page header overhead (8). *)

val min_page_size : int

val create : stats:Emio.Io_stats.t -> path:string -> page_size:int -> t
(** Create (or truncate) a page file, opened read-write. *)

val open_existing :
  ?read_only:bool ->
  stats:Emio.Io_stats.t ->
  path:string ->
  page_size:int ->
  unit ->
  t
(** Open an existing page file ([read_only] defaults to [true]).
    Raises [Unix.Unix_error] if the path does not exist. *)

val path : t -> string
val page_size : t -> int

val payload_capacity : t -> int
(** [page_size - header_bytes]: usable payload bytes per page. *)

val pages : t -> int
(** Pages present (a trailing partial page counts, and reads of it
    return [Short_page]). *)

val stats : t -> Emio.Io_stats.t

val write_page : t -> int -> bytes -> unit
(** [write_page t i payload] seals [payload] (length ≤
    [payload_capacity]) into page [i].  Writing past the end extends
    the file (skipped pages become holes that read back as
    [Bad_checksum] until written).  One physical write. *)

val read_page : t -> int -> (bytes, read_error) result
(** Fetch and verify page [i]'s payload.  One physical read. *)

val flush : t -> unit
(** [fsync] the descriptor. *)

val close : t -> unit
(** Close the descriptor; idempotent. *)

val replace_atomically : path:string -> (string -> unit) -> unit
(** [replace_atomically ~path write] runs [write tmp] with
    [tmp = path ^ ".tmp"], fsyncs [tmp], renames it over [path] and
    fsyncs [path]'s directory.  A crash leaves either the old [path] or
    the new one, and a reader that already has the old file open keeps
    reading the old bytes.  If [write] raises, [tmp] is removed and
    the exception re-raised. *)

(** Persistent index snapshots, format v2: build a structure once,
    serialize it, and reopen it for querying in a later process with
    its payload blocks served from disk through a {!Buffer_pool}.

    A snapshot file is a sequence of checksummed {!Block_file} pages:
    a header page (magic, version, page/block size, per-section CRCs,
    kind and free-form meta strings), block-table pages mapping each
    store block to its page span, the payload pages themselves, and
    finally the structure's {e skeleton} — everything except the
    payload blocks (layer lists, auxiliary B-trees, block ids), as a
    closure-free {!Emio.Codec} section.

    Nothing in the file is [Marshal]ed, so a snapshot written by one
    binary (or compiler version, or architecture) reopens in any
    other.  Loading validates the whole file — magic, version,
    per-page CRC-32, a CRC-32 over each section, length bookkeeping —
    before handing anything back; every way a file can be damaged is a
    constructor of {!error}, never an escaping exception.  A v1
    (closure-marshalled) file is rejected with [Unsupported_version 1].

    A structure persists by exporting one {!format} value: its kind,
    its payload blocks ({!Emio.Store.export_bytes}), and a codec for a
    plain-data skeleton with the conversions to and from it.
    {!save_as} and {!open_as} run the whole protocol for any format;
    reconstruction rebuilds stores from the file's backend via
    {!Emio.Store.of_backend}, recreating comparators and splitters
    from the persisted parameters. *)

type error =
  | Bad_magic
  | Unsupported_version of int
  | Bad_header of string
  | Truncated of { expected_bytes : int; actual_bytes : int }
  | Bad_checksum of { page : int }
  | Bad_section_crc of { section : string }
      (** a whole section (block table, payload, or skeleton) fails
          its header CRC even though each page checks out *)
  | Bad_payload of string  (** skeleton or payload bytes fail to decode *)
  | Kind_mismatch of { expected : string; got : string }
  | Missing_file of string  (** a part a directory MANIFEST names is absent *)

val error_to_string : error -> string

type info = {
  kind : string;  (** structure tag, e.g. ["lcsearch.h2"] *)
  meta : string;  (** free-form builder metadata (workload parameters) *)
  version : int;
  page_size : int;
  block_size : int;
  n_blocks : int;
  total_pages : int;
}

val save :
  path:string ->
  kind:string ->
  meta:string ->
  page_size:int ->
  block_size:int ->
  payload:bytes array ->
  skeleton:bytes ->
  unit
(** Write a snapshot: [payload] (one [bytes] per store block, in id
    order — from {!Emio.Store.export_bytes}) becomes the payload
    pages, [skeleton] the skeleton section, and [block_size] is
    recorded in the header for the reopening side.  The file is
    written beside [path] and renamed over it
    ({!Block_file.replace_atomically}), so a crash or a live reader of
    the old file sees the old snapshot or the new one, never a mix. *)

val read_info : string -> (info, error) result
(** Header-only probe (no CRC sweep of the body, but the header page
    itself is verified) — cheap kind/meta dispatch for the CLI. *)

(** {2 Typed formats} *)

type 'a format
(** How a structure of type ['a] becomes a snapshot and back.  The
    skeleton's type is hidden inside. *)

val format :
  kind:string ->
  version:int ->
  codec:'s Emio.Codec.t ->
  payload:('a -> int * bytes array) ->
  to_skeleton:('a -> 's) ->
  of_skeleton:
    (stats:Emio.Io_stats.t -> backend:Emio.Store_intf.backend -> 's -> 'a) ->
  'a format
(** [payload t] is the block size and the store blocks written as the
    payload pages; [codec] encodes [to_skeleton t] into the skeleton
    section, framed by {!Emio.Codec.versioned} with [kind] as its
    magic and [version] (bump it when the skeleton or the payload
    blocks change layout); [of_skeleton] rebuilds the structure over
    the reopened file's backend, charging its I/O to [stats]. *)

val kind : 'a format -> string
(** Header tag of the format's files, e.g. ["lcsearch.h2"]. *)

val save_as :
  'a format ->
  'a ->
  path:string ->
  ?meta:string ->
  ?page_size:int ->
  unit ->
  unit
(** {!save} a structure through its format. *)

val open_as :
  'a format ->
  stats:Emio.Io_stats.t ->
  ?policy:Buffer_pool.policy ->
  ?cache_pages:int ->
  string ->
  ('a * info, error) result
(** Open a snapshot for querying: verify every page and every section
    CRC, check the kind, decode the skeleton and rebuild the structure
    over a file backend (buffer pool of [cache_pages] pages, default
    64, eviction [policy] default LRU).  Every way the file can be
    damaged is an {!error} — a skeleton that decodes or reconstructs
    badly is [Bad_payload] — and on error the file is closed.
    Verification I/O is recorded in [stats]; reset it afterwards to
    measure queries alone. *)

(** Typed binary codecs for on-disk payload blocks and snapshot
    skeleton sections.

    A ['a t] pairs a writer with a bounds-checked reader over a
    little-endian, architecture-independent wire format: ints are
    8-byte two's-complement, floats are IEEE-754 bit patterns, counts
    are [u32].  Unlike [Marshal], a codec never captures closures or
    in-memory representation details, so bytes written by one binary
    (or compiler version) decode in any other.

    Every way a buffer can be damaged — truncation, bad tags,
    implausible counts, trailing garbage — raises {!Decode}, which
    {!Diskstore.Snapshot} maps to its typed [Bad_payload] error. *)

type 'a t

exception Decode of string
(** Raised by readers on malformed input (and by writers on
    out-of-range values). *)

val encode : 'a t -> 'a -> bytes

val decode : 'a t -> bytes -> 'a
(** Decodes the whole buffer; trailing bytes raise {!Decode}. *)

val write : 'a t -> Buffer.t -> 'a -> unit
val read : 'a t -> bytes -> int ref -> 'a

(** {2 Primitives} *)

val bool : bool t

val u8 : int t
(** One byte, [0..255]. *)

val u32 : int t
(** Four bytes, [0..2^32-1] — lengths, counts, small ids. *)

val int : int t
(** Eight bytes, the full native range — block ids, positions. *)

val float : float t
(** Eight bytes, exact IEEE-754 bit pattern round-trip. *)

val string : string t
(** [u32] length prefix + raw bytes. *)

(** {2 Combinators} *)

val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t
val quad : 'a t -> 'b t -> 'c t -> 'd t -> ('a * 'b * 'c * 'd) t
val option : 'a t -> 'a option t

val array : 'a t -> 'a array t
(** [u32] count prefix; a count exceeding the remaining bytes is
    rejected before any allocation. *)

val list : 'a t -> 'a list t

val map : decode:('a -> 'b) -> encode:('b -> 'a) -> 'a t -> 'b t
(** Codec for ['b] via an isomorphism with an already-codable ['a] —
    the workhorse for records and variants ([decode] may raise
    {!Decode} to reject invalid wire values). *)

val fix : ('a t -> 'a t) -> 'a t
(** Codec for a recursive type: [fix (fun self -> ...)] hands the
    definition a codec for its own recursive occurrences. *)

val custom :
  write:(Buffer.t -> 'a -> unit) -> read:(bytes -> int ref -> 'a) -> 'a t
(** Escape hatch for hand-rolled variant encodings; compose the raw
    helpers below. *)

val versioned : magic:string -> version:int -> 'a t -> 'a t
(** Frame a codec with a magic string and a format version, so every
    structure's skeleton section is self-describing: decoding a
    section written under a different magic or version raises a
    {!Decode} that names both. *)

(** {2 Raw helpers for [custom]} *)

val write_u8 : Buffer.t -> int -> unit
val write_u32 : Buffer.t -> int -> unit
val read_u8 : bytes -> int ref -> int
val read_u32 : bytes -> int ref -> int

(** Three-dimensional halfspace range reporting (§4.2, Theorem 4.4):
    O(n log2 n) expected blocks, O(log_B n + t) expected I/Os.

    Preprocess N points of R^3; a query is a closed halfspace
    [z <= a x + b y + c] and reports every point inside it.  In the
    dual, the points become planes and the query a point p; the T
    planes below p are found by asking the {!Lowest_planes} structure
    for the k lowest planes along the vertical line through p for
    k = β, 2β, 4β, ..., halting as soon as one of the k retrieved
    planes lies above p (§4.2). *)

type t

val build :
  stats:Emio.Io_stats.t ->
  block_size:int ->
  ?cache_blocks:int ->
  ?clip:float * float * float * float ->
  Geom.Point3.t array ->
  t
(** [clip] bounds the (a, b) coefficient region of the query
    halfspaces; queries outside fall back to an exact O(n) scan. *)

val query : t -> a:float -> b:float -> c:float -> Geom.Point3.t list
(** All points with [z <= a x + b y + c] (within {!Geom.Eps}). *)

val query_count : t -> a:float -> b:float -> c:float -> int

val query_ids_into : t -> a:float -> b:float -> c:float -> Emio.Reporter.t -> unit
(** Same protocol as {!query}, appending ids (indices into the
    build-time point array) to a reusable {!Emio.Reporter}; failed
    doubling attempts roll back via
    {!Emio.Reporter.mark}/{!Emio.Reporter.truncate}, so queries build
    no intermediate lists. *)

val space_blocks : t -> int

val fallbacks : t -> int
(** Queries that used the exact full-scan fallback. *)

val points : t -> Geom.Point3.t array
(** The build-time point array ([query_ids] indices point into it). *)

(** {2 Persistence} *)

type portable

val to_portable : embed_payload:bool -> t -> portable
(** Plain-data form.  [~embed_payload:true] embeds the all-planes
    payload (a component of another structure's skeleton); with
    [false] (the snapshot case) it must come back through
    [of_portable]'s [backend]. *)

val of_portable :
  stats:Emio.Io_stats.t ->
  backend:Emio.Store_intf.backend option ->
  portable ->
  t

val portable_codec : portable Emio.Codec.t

val snapshot : t Diskstore.Snapshot.format
(** The ["lcsearch.h3"] snapshot format: the all-planes store is
    the payload; the k-lowest-planes layers ride in the skeleton. *)

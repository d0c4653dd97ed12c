(** The k-lowest-planes structure of §4.1 (Theorem 4.2).

    Preprocess N planes in R^3 so that, for a vertical line ℓ at (x,y)
    and any k, the k lowest planes along ℓ can be reported in
    O(log_B n + k/B) expected I/Os using O(n log2 n) expected blocks.

    The structure keeps, for each sample size 2^i of a random
    permutation, the triangulated lower envelope Δ(R_i) with conflict
    lists K(Δ), behind a grid point-location structure.  A query runs
    TryLowestPlanes with δ = 1/2, 1/4, ... until success; three
    independent copies (footnote 9) keep the expected retry cost
    geometric.  A query that exhausts its layers falls back to a full
    O(n)-I/O scan, so answers are always exact. *)

type t

val build :
  stats:Emio.Io_stats.t ->
  block_size:int ->
  ?cache_blocks:int ->
  ?copies:int ->
  ?clip:float * float * float * float ->
  ?use_segtree:bool ->
  Geom.Plane3.t array ->
  t
(** [copies] defaults to 3 (footnote 9).  [clip] bounds the (x,y)
    region queries may come from; default (-1000, -1000, 1000, 1000).
    Queries outside the clip box use the exact fallback scan.
    [use_segtree] swaps the expected-case grid point locator for the
    worst-case {!Pointloc.Seg_tree} (more space, O(log n) guaranteed
    location — the A6 ablation). *)

val k_lowest : t -> x:float -> y:float -> k:int -> (int * float) list
(** The [min k N] lowest planes along the vertical line at (x, y), as
    (plane id, height at (x,y)) sorted by increasing height. *)

val k_lowest_into :
  t ->
  x:float ->
  y:float ->
  k:int ->
  threshold:float ->
  Emio.Reporter.t ->
  int * int
(** [k_lowest_into t ~x ~y ~k ~threshold r] retrieves the [min k N]
    lowest planes and appends to [r] the ids of those with height at
    most [threshold] (callers fold their epsilon into [threshold]).
    Returns [(pushed, retrieved)]: the §4.2 doubling protocol stops as
    soon as [pushed < retrieved] (some retrieved plane lies above the
    query), doubling [k] otherwise.  Combined with
    {!Emio.Reporter.mark}/{!Emio.Reporter.truncate}, retries need no
    intermediate lists.  Ids arrive in candidate-scan order, not by
    height; in the protocol-terminating case [pushed < retrieved] the
    pushed set is exactly every plane at or below the threshold. *)

val k_lowest_count :
  t -> x:float -> y:float -> k:int -> threshold:float -> int * int
(** Count-only twin of {!k_lowest_into}: [(below, retrieved)] where
    [below] is how many of the [min k N] lowest planes have height at
    most [threshold].  Same probe sequence and I/O charges, no
    reporter, no allocation — the count query paths run the doubling
    protocol on this. *)

val layer_count : t -> int
(** Number of envelope layers per copy. *)

val missing_layers : t -> int
(** Layers, over all copies, whose sample was degenerate (coplanar
    dual points): a query that picks one moves on to the next copy. *)

val space_blocks : t -> int

val fallbacks : t -> int
(** How many queries have resorted to the full-scan fallback — the
    benches report this to show the retry protocol almost never
    degenerates. *)

(** {2 Persistence}

    A [portable] is the whole structure as plain data: every layer's
    locator, conflict lists, and (optionally) the all-planes run's
    blocks.  When this structure is itself the snapshot's root (the h3
    index), the all-planes store becomes the snapshot payload instead:
    pass [~embed_payload:false] and write {!payload} as the
    payload section, then revive with [?backend]. *)

type portable

val to_portable : ?embed_payload:bool -> t -> portable
(** [embed_payload] defaults to [true] (fully self-contained). *)

val of_portable :
  stats:Emio.Io_stats.t ->
  ?backend:Emio.Store_intf.backend ->
  portable ->
  t
(** @raise Invalid_argument if the payload was not embedded and no
    [backend] is given. *)

val portable_codec : portable Emio.Codec.t

val payload : t -> int * bytes array
(** The all-planes store's block size and blocks, codec-encoded — a
    snapshot payload section. *)

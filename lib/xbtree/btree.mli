(** An external-memory B+-tree over a {!Emio.Store}.

    Each node occupies one disk block and has fan-out Θ(B), so a
    predecessor search costs O(log_B n) I/Os — the classical bound the
    paper cites as the one-dimensional optimum (§1.2).  The tree is
    bulk-loaded from sorted data; the paper's structures are static, so
    no dynamic updates are needed (a dynamic variant is an explicit
    open problem, §7).

    Used as the boundary-point tree T_i and slope tree T* of §3. *)

type ('k, 'v) t

val bulk_load :
  stats:Emio.Io_stats.t ->
  block_size:int ->
  ?cache_blocks:int ->
  cmp:('k -> 'k -> int) ->
  ('k * 'v) array ->
  ('k, 'v) t
(** Builds the tree from key–value pairs sorted by key ([cmp]); raises
    [Invalid_argument] if they are not sorted.  Equal keys are allowed
    and preserved.  O(n) block writes. *)

val height : ('k, 'v) t -> int

val space_blocks : ('k, 'v) t -> int
(** Total blocks occupied (leaves + internal nodes). *)

val predecessor : ('k, 'v) t -> 'k -> ('k * 'v) option
(** Greatest entry with key <= the probe.  O(log_B n) I/Os. *)

(** {2 Persistence}

    The on-disk form of a B-tree is everything except its comparator:
    node blocks, root pointer, and shape parameters.  The reopening
    side supplies [cmp] again — reconstructed from persisted build
    parameters, never serialized. *)

type ('k, 'v) portable

val to_portable : ('k, 'v) t -> ('k, 'v) portable
(** @raise Invalid_argument if the tree's stores are external. *)

val of_portable :
  stats:Emio.Io_stats.t -> cmp:('k -> 'k -> int) -> ('k, 'v) portable -> ('k, 'v) t

val portable_codec :
  'k Emio.Codec.t -> 'v Emio.Codec.t -> ('k, 'v) portable Emio.Codec.t

(** A reusable, growable buffer of reported point ids: the
    zero-allocation reporting sink for the query hot paths.

    Every structure ([Core.Partition_tree], [Core.Halfspace2d],
    [Baselines.Rtree], ...) exposes a [*_into] query variant that
    appends its answers' build-time ids to a reporter instead of
    materializing a list.  A caller that runs many queries
    reuses one reporter across them ({!clear} between queries), so the
    steady-state reporting cost is a bounds check and an array store
    per id — no per-point consing, no [List.rev], no intermediate
    lists.  The classic list-returning entry points survive as thin
    wrappers ([to_list] of a scratch reporter).

    Reporters also support speculative reporting: {!mark} the current
    length, report optimistically, and {!truncate} back to the mark if
    the attempt must be retried (the §4.2 doubling protocol does
    exactly this).  A reporter is single-owner mutable state: never
    share one across concurrently running queries. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty reporter.  [capacity] (default 256, min 16) is the
    initial backing-array size; the buffer doubles as needed and never
    shrinks, so a long-lived reporter stops allocating once it has
    seen its largest answer. *)

val clear : t -> unit
(** Forget the contents (O(1); keeps the backing array). *)

val length : t -> int
(** Number of ids currently held. *)

val add : t -> int -> unit
(** Append one id (amortized O(1), allocation-free once warm). *)

val mark : t -> int
(** The current length, to be passed to {!truncate} or
    {!rewrite_from} later. *)

val truncate : t -> int -> unit
(** [truncate r m] drops every id reported after {!mark} returned
    [m] (O(1)).  Raises [Invalid_argument] if [m] exceeds the current
    length. *)

val rewrite_from : t -> int -> (int -> int) -> unit
(** [rewrite_from r m f] maps every id reported since mark [m]
    through [f], in place — how a delegating structure translates a
    secondary structure's local ids to global ones without an
    intermediate list. *)

val filter_from : t -> int -> (int -> bool) -> unit
(** [filter_from r m keep] drops every id reported since mark [m] that
    fails [keep], compacting the survivors in place (order preserved,
    allocation-free) — how a dynamized wrapper censors tombstoned ids
    out of an inner structure's answers. *)

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

val to_list : t -> int list
(** Contents in insertion order (allocates; compatibility path). *)

val to_array : t -> int array
(** Contents in insertion order, as a fresh array. *)

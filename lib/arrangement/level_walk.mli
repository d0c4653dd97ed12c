(** Traversal of the k-level of an arrangement of lines (§2.3).

    The k-level A_k(L) is the closure of the edges of the arrangement
    whose points have exactly [k] lines strictly below them; it is an
    x-monotone polygonal chain.  We walk it from x = -infinity to
    x = +infinity, maintaining the sets L^-(x) (lines strictly below
    the current edge), as in the Edelsbrunner–Welzl algorithm.  The
    Overmars–van Leeuwen structure is replaced by an exact
    branch-and-bound search over a 2-d tree of the dual points (see
    DESIGN.md substitution 2); the traversal itself — and hence the
    resulting polyline — is exact.

    Lines are identified by their index in the input array.  Input
    lines must be pairwise distinct (duplicates are the caller's
    responsibility; the 2-D halfspace structure deduplicates points
    before dualizing). *)

type tree
(** A set of lines numbered [0 .. size - 1], indexed for the walk.
    Built once, it can lose lines between walks ({!compact}); the walk
    finds the same vertices over any tree holding the same lines. *)

val tree_of_lines : Geom.Line2.t array -> tree
(** O(m log m).  Line [i] of the tree is [lines.(i)]. *)

val compact : tree -> peeled:bool array -> unit
(** [compact t ~peeled] removes every line [i] with [peeled.(i)] and
    renumbers the others [0, 1, ...] in their old order.  O(m): the
    remaining lines keep their places in the tree. *)

val size : tree -> int
(** Number of lines. *)

val slope : tree -> int -> float
(** [slope t i] is line [i]'s slope; {!icept} its intercept. *)

val icept : tree -> int -> float

val left_order : tree -> int -> int array
(** [left_order t k] is a permutation of the line ids whose entry [k]
    is the line of rank [k] at x = -infinity (larger slope is lower,
    then smaller intercept), with the [k] lower lines before it and
    the higher ones after, each side in no particular order.  O(m)
    expected (Hoare's selection).  Requires [0 <= k < size t]. *)

type vertex_kind =
  | Convex  (** a ∨ vertex: the slope increases; the incoming line
                continues {e below} the level (paper Fig. 4) *)
  | Concave  (** a ∧ vertex: the slope decreases; the incoming line
                 continues above the level *)

type event = {
  vertex : Geom.Point2.t;
  kind : vertex_kind;
  incoming : int;  (** line forming the edge ending at this vertex *)
  outgoing : int;  (** line forming the edge starting here *)
}

type level = {
  edge_lines : int array;
      (** lines supporting the edges, left to right;
          [Array.length edge_lines = Array.length vertices + 1] *)
  vertices : Geom.Point2.t array;
}

val walk :
  ?on_event:(event -> below_after:(unit -> int list) -> unit) ->
  tree:tree ->
  k:int ->
  unit ->
  level
(** [walk ~tree ~k ()] traverses A_k of the tree's lines.  Requires
    [0 <= k < size tree].  [on_event] fires at every vertex,
    left to right; [below_after ()] lists the lines strictly below the
    level edge that starts at this vertex (cost O(k) per call). *)

val complexity : level -> int
(** Number of vertices of the level. *)

val check_level : lines:Geom.Line2.t array -> k:int -> level -> bool
(** Debug/test oracle: samples every edge of the level and verifies by
    brute force that exactly [k] lines lie strictly below it, and that
    consecutive edges meet at the recorded vertices. *)

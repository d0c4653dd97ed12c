(** The greedy 3k-clustering of a level (§3.1, Lemma 3.2).

    A clustering of A_k(L) is induced by a left-to-right subsequence
    w_0, ..., w_u of level vertices (plus the points at x = ±infinity):
    cluster C_i is the set of lines passing strictly below some point
    of the level between w_{i-1} and w_i.  The greedy clustering makes
    every cluster have at most 3k lines while guaranteeing that at
    least k lines of each cluster never reappear in a later cluster —
    hence at most N/k clusters (Lemma 3.2) — and that a line reappearing
    to the right of C_i also appears in C_{i+1} (Corollary 3.3).

    Lemma 3.1 is what queries rely on: if a query point p, whose
    relevant cluster is C, lies above fewer than k lines of C, then
    every line of L below p belongs to C. *)

type cluster = {
  lines : int array;
      (** ids of the member lines, sorted by (slope, intercept) — the
          order §3.3 uses to merge/diff neighbouring clusters *)
  left_x : float;  (** abscissa of the left boundary point w_{i-1} *)
  right_x : float;  (** abscissa of the right boundary point w_i *)
}

type t = {
  clusters : cluster array;
  boundaries : float array;
      (** abscissas of w_1 .. w_{u-1}: the internal boundary points;
          cluster [i] is relevant for points with
          boundaries.(i-1) <= x < boundaries.(i) *)
  level_complexity : int;  (** number of vertices of the walked level *)
}

val greedy : tree:Level_walk.tree -> k:int -> t
(** Walks A_k of the tree's lines and builds the greedy
    3k-clustering.  Requires [1 <= k < Level_walk.size tree] and
    pairwise distinct lines. *)

val relevant : t -> float -> int
(** Index of the cluster relevant for a point with abscissa [x]
    (exactly one cluster is relevant for every x). *)

val size : t -> int
(** Number of clusters. *)

val max_cluster_size : t -> int


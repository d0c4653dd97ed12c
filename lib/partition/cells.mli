(** d-dimensional points, affine constraints, and partition cells.

    Points are float arrays of length d.  A halfspace query in the
    paper's form [x_d <= a_0 + Σ_{i<d} a_i x_i] is one affine
    constraint; a simplex query (footnote 7: the intersection of d+1
    halfspaces) is a conjunction of several.

    Cells are the regions of a simplicial partition (Theorem 5.1):
    either axis-aligned boxes (the kd partitioner — same O(r^{1-1/d})
    crossing bound, DESIGN.md substitution 5) or genuine simplices
    (the sampled partitioner). *)

type point = float array

(** The constraint [w · p + b <= 0]. *)
type constr = { w : float array; b : float }

val constr_of_halfspace : dim:int -> a0:float -> a:float array -> constr
(** The paper's query form [x_d <= a0 + Σ a_i x_i] (with [a] of length
    d-1) as a constraint. *)

val satisfies : constr -> point -> bool
(** [eval <= eps]: closed halfspace with tolerance. *)

type cell =
  | Box of { lo : float array; hi : float array }
  | Simplex of point array  (** d+1 affinely independent vertices *)

type side =
  | Inside  (** the cell satisfies the constraint everywhere *)
  | Outside  (** the cell violates it everywhere *)
  | Crossing

val classify : cell -> constr -> side
(** Exact for boxes (per-coordinate extrema of an affine function) and
    for simplices (vertex evaluations). *)

type region_side =
  | R_inside  (** cell contained in the query region *)
  | R_disjoint
  | R_crossing  (** conservative: may also be returned for disjoint
                    cells; correctness never depends on it *)

val classify_region : cell -> constr list -> region_side
(** Cell versus an intersection of constraints (a simplex or general
    convex polytope query). *)

val cell_contains : cell -> point -> bool

val bounding_box : point array -> cell
(** Tight bounding box of a nonempty point set. *)

val bounding_simplex : dim:int -> point array -> cell
(** A simplex containing the point set: the bounding box scaled into a
    corner simplex (used by the sampled "simplicial" partitioner and
    the Figure 6 reproduction). *)

val crossing_number : cell array -> constr -> int
(** How many cells the constraint's boundary hyperplane crosses — the
    quantity Theorem 5.1 bounds by α r^{1-1/d}. *)

val point_codec : point Emio.Codec.t
val cell_codec : cell Emio.Codec.t

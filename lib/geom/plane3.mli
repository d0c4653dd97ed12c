(** Non-vertical planes in R³, in the form [z = a x + b y + c], with
    the §2.1 duality and the Theorem 4.3 lifting map. *)

type t

val make : a:float -> b:float -> c:float -> t
val a : t -> float
val b : t -> float
val c : t -> float

val eval : t -> float -> float -> float
(** Height of the plane above (x, y). *)

val dual_point : t -> Point3.t
(** The plane z = a x + b y + c ↦ the point (a, b, c). *)

val dual_plane_of_point : Point3.t -> t
(** The point (p₁, p₂, p₃) ↦ the plane z = -p₁ x - p₂ y + p₃
    (Lemma 2.1 preserves above/below). *)

val lift : Point2.t -> t
(** The lifting map of Theorem 4.3: (a, b) ↦ z = a² + b² - 2a x - 2b y.
    The vertical order of lifted planes at (x, y) is the order of
    distance from (x, y). *)

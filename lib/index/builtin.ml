(* One Index.S adapter per structure in the repo.  These are the only
   places that know native build/query signatures; everything above
   (registry, benches, CLI, conformance tests) is structure-agnostic.

   Conventions shared by every adapter:
   - malformed build parameters raise [Invalid_argument] with a
     "name.build: reason" message (the Index signature's contract);
   - [query]/[query_count]/[query_into] accept the unified {a0; a}
     form and check its dimension;
   - every native reports build-time ids on its [*_into] path; the
     natives that answer in ids alone keep the build-time coordinate
     rows for [query], and [query_count] stays on the native counting
     path (same I/O pattern as the native API). *)

open Geom

let clip3 = (-10., -10., 10., 10.)
(* Coefficient clip box shared by every 3-D structure build: the bench
   query generators clamp (a, b) to ±9.9, safely inside. *)

let pt2_row p = [| Point2.x p; Point2.y p |]
let pt3_row p = [| Point3.x p; Point3.y p; Point3.z p |]

let rows_of_dataset = function
  | Index.Pts2 pts -> Array.map pt2_row pts
  | Index.Pts3 pts -> Array.map pt3_row pts
  | Index.PtsD pts -> pts

let check_dims ~name ~dims ds =
  let d = Index.dataset_dim ds in
  if not (List.mem d dims) then
    invalid_arg
      (Printf.sprintf "%s.build: unsupported dimension %d (supports %s)" name d
         (String.concat ", " (List.map string_of_int dims)));
  d

let as_pts2 ~name ds =
  match ds with
  | Index.Pts2 pts -> pts
  | Index.PtsD pts when Index.dataset_dim ds = 2 ->
      Array.map (fun r -> Point2.make r.(0) r.(1)) pts
  | _ ->
      invalid_arg
        (Printf.sprintf "%s.build: unsupported dimension %d (supports 2)" name
           (Index.dataset_dim ds))

let as_pts3 ~name ds =
  match ds with
  | Index.Pts3 pts -> pts
  | Index.PtsD pts when Index.dataset_dim ds = 3 ->
      Array.map (fun r -> Point3.make r.(0) r.(1) r.(2)) pts
  | _ ->
      invalid_arg
        (Printf.sprintf "%s.build: unsupported dimension %d (supports 3)" name
           (Index.dataset_dim ds))

let q2 ~name (q : Index.query) =
  if Index.query_dim q <> 2 then
    invalid_arg (name ^ ".query: expected a 2-d halfplane");
  (q.a.(0), q.a0)

let q3 ~name (q : Index.query) =
  if Index.query_dim q <> 3 then
    invalid_arg (name ^ ".query: expected a 3-d halfspace");
  (q.a.(0), q.a.(1), q.a0)

let qd ~name ~dim (q : Index.query) =
  if Index.query_dim q <> dim then
    invalid_arg
      (Printf.sprintf "%s.query: expected a %d-d halfspace" name dim);
  (q.a0, q.a)

(* Run a native id sink and return how many ids it appended. *)
let appended r run =
  let m = Emio.Reporter.mark r in
  run r;
  Emio.Reporter.length r - m

module H2 = struct
  type t = Core.Halfspace2d.t

  let name = "h2"
  let description = "§3 layered 2-d halfspace structure (Theorem 3.5)"
  let dims = [ 2 ]
  let kinds = [ Index.Halfspace ]
  let space_bound = "O(n)"
  let query_bound = "O(log_B n + t)"
  let preferred ~dim:_ = `Pts2

  let build ~(params : Index.build_params) ~stats ds =
    Index.check_params ~name params;
    Core.Halfspace2d.build ~stats ~block_size:params.block_size
      ~cache_blocks:params.cache_blocks (as_pts2 ~name ds)

  let query t q =
    let slope, icept = q2 ~name q in
    List.map pt2_row (Core.Halfspace2d.query t ~slope ~icept)

  let query_count t q =
    let slope, icept = q2 ~name q in
    Core.Halfspace2d.query_count t ~slope ~icept


  let query_into t q r =
    let slope, icept = q2 ~name q in
    appended r (Core.Halfspace2d.query_ids_into t ~slope ~icept)

  let space_blocks = Core.Halfspace2d.space_blocks

  let counters t =
    [
      ("layers", Core.Halfspace2d.layers t);
      ("last_clusters_visited", Core.Halfspace2d.last_clusters_visited t);
      ("last_layers_visited", Core.Halfspace2d.last_layers_visited t);
    ]

  let update = None

  let snapshot =
    Index.snapshot_of Core.Halfspace2d.snapshot ~wrap:Fun.id ~unwrap:Fun.id
end

module H3 = struct
  type t = Core.Halfspace3d.t

  let name = "h3"
  let description = "§4.2 3-d halfspace structure over k-lowest-planes"
  let dims = [ 3 ]
  let kinds = [ Index.Halfspace ]
  let space_bound = "O(n log2 n)"
  let query_bound = "O(log_B n + t) expected"
  let preferred ~dim:_ = `Pts3

  let build ~(params : Index.build_params) ~stats ds =
    Index.check_params ~name params;
    Core.Halfspace3d.build ~stats ~block_size:params.block_size
      ~cache_blocks:params.cache_blocks ~clip:clip3 (as_pts3 ~name ds)

  let query t q =
    let a, b, c = q3 ~name q in
    List.map pt3_row (Core.Halfspace3d.query t ~a ~b ~c)

  let query_count t q =
    let a, b, c = q3 ~name q in
    Core.Halfspace3d.query_count t ~a ~b ~c


  let query_into t q r =
    let a, b, c = q3 ~name q in
    appended r (Core.Halfspace3d.query_ids_into t ~a ~b ~c)

  let space_blocks = Core.Halfspace3d.space_blocks
  let counters t = [ ("fallbacks", Core.Halfspace3d.fallbacks t) ]
  let update = None

  let snapshot =
    Index.snapshot_of Core.Halfspace3d.snapshot ~wrap:Fun.id ~unwrap:Fun.id
end

module Ptree = struct
  type t = { s : Core.Partition_tree.t; pts : Partition.Cells.point array }

  let name = "ptree"
  let description = "§5 linear-size d-dimensional partition tree"
  let dims = [ 2; 3; 4 ]
  let kinds = [ Index.Halfspace ]
  let space_bound = "O(n)"
  let query_bound = "O(n^{1-1/d+e} + t)"
  let preferred ~dim:_ = `PtsD

  let build ~(params : Index.build_params) ~stats ds =
    Index.check_params ~name params;
    let dim = check_dims ~name ~dims ds in
    let pts = rows_of_dataset ds in
    let s =
      Core.Partition_tree.build ~stats ~block_size:params.block_size
        ~cache_blocks:params.cache_blocks ~dim pts
    in
    { s; pts }

  let ids t q =
    let a0, a = qd ~name ~dim:(Core.Partition_tree.dim t.s) q in
    Core.Partition_tree.query_halfspace t.s ~a0 ~a

  let query t q = List.map (fun i -> t.pts.(i)) (ids t q)

  let query_count t q =
    let a0, a = qd ~name ~dim:(Core.Partition_tree.dim t.s) q in
    Core.Partition_tree.query_halfspace_count t.s ~a0 ~a


  let query_into t q r =
    let a0, a = qd ~name ~dim:(Core.Partition_tree.dim t.s) q in
    appended r (Core.Partition_tree.query_halfspace_into t.s ~a0 ~a)

  let space_blocks t = Core.Partition_tree.space_blocks t.s

  let counters t =
    [ ("last_visited_nodes", Core.Partition_tree.last_visited_nodes t.s) ]

  let update = None

  let snapshot =
    Index.snapshot_of Core.Partition_tree.snapshot ~unwrap:(fun t -> t.s)
      ~wrap:(fun s -> { s; pts = Core.Partition_tree.points s })
end

module Shallow = struct
  type t = { s : Core.Shallow_tree.t; pts : Partition.Cells.point array }

  let name = "shallow"
  let description = "§6 shallow partition tree (Theorem 6.3)"
  let dims = [ 2; 3; 4 ]
  let kinds = [ Index.Halfspace ]
  let space_bound = "O(n log_B n)"
  let query_bound = "O(n^{1-1/⌊d/2⌋+e} + t)"
  let preferred ~dim:_ = `PtsD

  let build ~(params : Index.build_params) ~stats ds =
    Index.check_params ~name params;
    let dim = check_dims ~name ~dims ds in
    let pts = rows_of_dataset ds in
    let s =
      Core.Shallow_tree.build ~stats ~block_size:params.block_size
        ~cache_blocks:params.cache_blocks ~dim pts
    in
    { s; pts }

  let ids t q =
    let a0, a = qd ~name ~dim:(Core.Shallow_tree.dim t.s) q in
    Core.Shallow_tree.query_halfspace t.s ~a0 ~a

  let query t q = List.map (fun i -> t.pts.(i)) (ids t q)

  let query_count t q =
    let a0, a = qd ~name ~dim:(Core.Shallow_tree.dim t.s) q in
    Core.Shallow_tree.query_halfspace_count t.s ~a0 ~a


  let query_into t q r =
    let a0, a = qd ~name ~dim:(Core.Shallow_tree.dim t.s) q in
    appended r (Core.Shallow_tree.query_halfspace_into t.s ~a0 ~a)

  let space_blocks t = Core.Shallow_tree.space_blocks t.s

  let counters t =
    [ ("last_secondary_uses", Core.Shallow_tree.last_secondary_uses t.s) ]

  let update = None

  let snapshot =
    Index.snapshot_of Core.Shallow_tree.snapshot ~unwrap:(fun t -> t.s)
      ~wrap:(fun s -> { s; pts = Core.Shallow_tree.points s })
end

module Tradeoff = struct
  type t = { s : Core.Tradeoff3d.t; pts : Point3.t array }

  let name = "tradeoff"
  let description = "§6 space/query tradeoff (Theorem 6.1), B^a leaves"
  let dims = [ 3 ]
  let kinds = [ Index.Halfspace ]
  let space_bound = "O(n log2 B)"
  let query_bound = "O((n/B^{a-1})^{2/3+e} + t) expected"
  let preferred ~dim:_ = `Pts3

  let build ~(params : Index.build_params) ~stats ds =
    Index.check_params ~name params;
    let pts = as_pts3 ~name ds in
    let s =
      Core.Tradeoff3d.build ~stats ~block_size:params.block_size
        ~cache_blocks:params.cache_blocks ~clip:clip3 pts
    in
    { s; pts }

  let query t q =
    let a, b, c = q3 ~name q in
    List.map
      (fun i -> pt3_row t.pts.(i))
      (Core.Tradeoff3d.query_ids t.s ~a ~b ~c)

  let query_count t q =
    let a, b, c = q3 ~name q in
    Core.Tradeoff3d.query_count t.s ~a ~b ~c


  let query_into t q r =
    let a, b, c = q3 ~name q in
    appended r (Core.Tradeoff3d.query_ids_into t.s ~a ~b ~c)

  let space_blocks t = Core.Tradeoff3d.space_blocks t.s

  let counters t =
    [
      ("leaf_capacity", Core.Tradeoff3d.leaf_capacity t.s);
      ("last_secondary_queries", Core.Tradeoff3d.last_secondary_queries t.s);
    ]

  let update = None

  let snapshot =
    Index.snapshot_of Core.Tradeoff3d.snapshot ~unwrap:(fun t -> t.s)
      ~wrap:(fun s -> { s; pts = Core.Tradeoff3d.points s })
end

module Cert = struct
  type t = { s : Core.Cert_tree.t; pts : Point3.t array }

  let name = "cert"
  let description = "certificate-enhanced 3-d partition tree (DESIGN.md §7)"
  let dims = [ 3 ]
  let kinds = [ Index.Halfspace ]
  let space_bound = "O(n) + certificates"
  let query_bound = "O((T+1) · depth) node visits"
  let preferred ~dim:_ = `Pts3

  let build ~(params : Index.build_params) ~stats ds =
    Index.check_params ~name params;
    let pts = as_pts3 ~name ds in
    let s =
      Core.Cert_tree.build ~stats ~block_size:params.block_size
        ~cache_blocks:params.cache_blocks pts
    in
    { s; pts }

  let qc ~name (q : Index.query) =
    if Index.query_dim q <> 3 then
      invalid_arg (name ^ ".query: expected a 3-d halfspace");
    (q.a0, q.a)

  let query t q =
    let a0, a = qc ~name q in
    List.map (fun i -> pt3_row t.pts.(i)) (Core.Cert_tree.query_ids t.s ~a0 ~a)

  let query_count t q =
    let a0, a = qc ~name q in
    Core.Cert_tree.query_count t.s ~a0 ~a


  let query_into t q r =
    let a0, a = qc ~name q in
    appended r (Core.Cert_tree.query_ids_into t.s ~a0 ~a)

  let space_blocks t = Core.Cert_tree.space_blocks t.s

  let counters t =
    [
      ("last_visited_nodes", Core.Cert_tree.last_visited_nodes t.s);
      ("certificate_items", Core.Cert_tree.certificate_items t.s);
    ]

  let update = None

  let snapshot =
    Index.snapshot_of Core.Cert_tree.snapshot ~unwrap:(fun t -> t.s)
      ~wrap:(fun s -> { s; pts = Core.Cert_tree.points s })
end

(* The two R-tree packings share everything but the name and the
   [packing] flag; each stamps its own snapshot kind
   ("lcsearch." ^ name) so the kind → module mapping stays
   injective. *)
module type RTREE_VARIANT = sig
  val name : string
  val description : string
  val packing : Baselines.Rtree.packing
end

module Make_rtree (V : RTREE_VARIANT) = struct
  type t = Baselines.Rtree.t

  let name = V.name
  let description = V.description
  let dims = [ 2 ]
  let kinds = [ Index.Halfspace; Index.Window ]
  let space_bound = "O(n)"
  let query_bound = "O(√n + t) typical, Θ(n) adversarial (§1.2)"
  let preferred ~dim:_ = `Pts2

  let build ~(params : Index.build_params) ~stats ds =
    Index.check_params ~name params;
    Baselines.Rtree.build ~stats ~block_size:params.block_size
      ~cache_blocks:params.cache_blocks ~packing:V.packing (as_pts2 ~name ds)

  let query t q =
    let slope, icept = q2 ~name q in
    List.map pt2_row (Baselines.Rtree.query_halfplane t ~slope ~icept)

  let query_count t q =
    let slope, icept = q2 ~name q in
    Baselines.Rtree.query_count t ~slope ~icept


  let query_into t q r =
    let slope, icept = q2 ~name q in
    appended r (Baselines.Rtree.query_ids_into t ~slope ~icept)

  let space_blocks = Baselines.Rtree.space_blocks
  let counters t = [ ("height", Baselines.Rtree.height t) ]
  let update = None

  let snapshot =
    Index.snapshot_of
      (Baselines.Rtree.snapshot_format ~kind:("lcsearch." ^ V.name))
      ~wrap:Fun.id ~unwrap:Fun.id
end

module Rtree = Make_rtree (struct
  let name = "rtree"
  let description = "STR-packed R-tree baseline (§1.2 refs 29, 9)"
  let packing = Baselines.Rtree.Str
end)

module Rtree_hilbert = Make_rtree (struct
  let name = "rtree-hilbert"
  let description = "Hilbert-packed R-tree baseline (§1.2 ref 33)"
  let packing = Baselines.Rtree.Hilbert
end)

module Quadtree = struct
  type t = Baselines.Quadtree.t

  let name = "quadtree"
  let description = "bucket PR quadtree baseline (§1.2 refs 46, 47)"
  let dims = [ 2 ]
  let kinds = [ Index.Halfspace ]
  let space_bound = "O(n) typical"
  let query_bound = "O(√n + t) uniform, Θ(n) adversarial (§1.2)"
  let preferred ~dim:_ = `Pts2

  let build ~(params : Index.build_params) ~stats ds =
    Index.check_params ~name params;
    Baselines.Quadtree.build ~stats ~block_size:params.block_size
      ~cache_blocks:params.cache_blocks (as_pts2 ~name ds)

  let query t q =
    let slope, icept = q2 ~name q in
    List.map pt2_row (Baselines.Quadtree.query_halfplane t ~slope ~icept)

  let query_count t q =
    let slope, icept = q2 ~name q in
    Baselines.Quadtree.query_count t ~slope ~icept


  let query_into t q r =
    let slope, icept = q2 ~name q in
    appended r (Baselines.Quadtree.query_ids_into t ~slope ~icept)

  let space_blocks = Baselines.Quadtree.space_blocks
  let counters t = [ ("depth", Baselines.Quadtree.depth t) ]
  let update = None

  let snapshot =
    Index.snapshot_of Baselines.Quadtree.snapshot ~wrap:Fun.id ~unwrap:Fun.id
end

module Gridfile = struct
  type t = Baselines.Grid_file.t

  let name = "gridfile"
  let description = "grid file baseline (§1.2 ref 41)"
  let dims = [ 2 ]
  let kinds = [ Index.Halfspace; Index.Window ]
  let space_bound = "O(n) typical"
  let query_bound = "O(√n + t) uniform, Θ(n) adversarial (§1.2)"
  let preferred ~dim:_ = `Pts2

  let build ~(params : Index.build_params) ~stats ds =
    Index.check_params ~name params;
    Baselines.Grid_file.build ~stats ~block_size:params.block_size
      ~cache_blocks:params.cache_blocks (as_pts2 ~name ds)

  let query t q =
    let slope, icept = q2 ~name q in
    List.map pt2_row (Baselines.Grid_file.query_halfplane t ~slope ~icept)

  let query_count t q =
    let slope, icept = q2 ~name q in
    Baselines.Grid_file.query_count t ~slope ~icept


  let query_into t q r =
    let slope, icept = q2 ~name q in
    appended r (Baselines.Grid_file.query_ids_into t ~slope ~icept)

  let space_blocks = Baselines.Grid_file.space_blocks
  let counters t = [ ("side", Baselines.Grid_file.side t) ]
  let update = None

  let snapshot =
    Index.snapshot_of Baselines.Grid_file.snapshot ~wrap:Fun.id ~unwrap:Fun.id
end

module Scan = struct
  module L = Baselines.Linear_scan

  type t = L.any

  let name = "scan"
  let description = "linear scan oracle: Θ(n) I/Os, always exact"
  let dims = [ 2; 3; 4 ]
  let kinds = [ Index.Halfspace ]
  let space_bound = "O(n)"
  let query_bound = "Θ(n)"
  let preferred ~dim = if dim = 2 then `Pts2 else `PtsD

  let build ~(params : Index.build_params) ~stats ds =
    Index.check_params ~name params;
    let dim = check_dims ~name ~dims ds in
    let block_size = params.block_size and cache_blocks = params.cache_blocks in
    match ds with
    | Index.Pts2 pts -> L.T2 (L.build ~stats ~block_size ~cache_blocks pts)
    | _ ->
        L.Td
          (L.build_d ~stats ~block_size ~cache_blocks ~dim (rows_of_dataset ds))

  let query t q =
    match t with
    | L.T2 s ->
        let slope, icept = q2 ~name q in
        List.map pt2_row (L.query_halfplane s ~slope ~icept)
    | L.Td s ->
        let a0, a = qd ~name ~dim:(L.dim_d s) q in
        L.query_halfspace_d s ~a0 ~a

  let query_count t q =
    match t with
    | L.T2 s ->
        let slope, icept = q2 ~name q in
        L.query_count s ~slope ~icept
    | L.Td s ->
        let a0, a = qd ~name ~dim:(L.dim_d s) q in
        L.query_count_d s ~a0 ~a


  let query_into t q r =
    match t with
    | L.T2 s ->
        let slope, icept = q2 ~name q in
        appended r (L.query_ids_into s ~slope ~icept)
    | L.Td s ->
        let a0, a = qd ~name ~dim:(L.dim_d s) q in
        appended r (L.query_ids_into_d s ~a0 ~a)

  let space_blocks = function
    | L.T2 s -> L.space_blocks s
    | L.Td s -> L.space_blocks_d s

  let counters _t = []
  let update = None
  let snapshot = Index.snapshot_of L.snapshot ~wrap:Fun.id ~unwrap:Fun.id
end

(* The registry seeds itself from this list (a static reference, so no
   -linkall tricks are needed to keep the adapters linked).  Order is
   the Table-1 presentation order: paper structures, then baselines. *)
let all : (module Index.S) list =
  [
    (module H2);
    (module H3);
    (module Shallow);
    (module Tradeoff);
    (module Ptree);
    (module Cert);
    (module Rtree);
    (module Rtree_hilbert);
    (module Quadtree);
    (module Gridfile);
    (module Scan);
  ]

open Partition

type kind = Kd | Simplicial | Shallow

type node_ref = Leaf of int | Node of int

type child = { cell : Cells.cell; sub : node_ref }

type item = { coords : Cells.point; pid : int }

type t = {
  leaves : item Emio.Store.t;
  internals : child Emio.Store.t;
  root : node_ref option;
  length : int;
  dim : int;
  mutable visited : int;
}

let block_size t = Emio.Store.block_size t.leaves
let dim t = t.dim
let last_visited_nodes t = t.visited

let space_blocks t =
  Emio.Store.blocks_used t.leaves + Emio.Store.blocks_used t.internals

let partition_of = function
  | Kd -> Partitioner.kd
  | Simplicial -> Partitioner.simplicial
  | Shallow -> Partitioner.shallow

let item_codec =
  Emio.Codec.map
    ~decode:(fun (coords, pid) -> { coords; pid })
    ~encode:(fun it -> (it.coords, it.pid))
    Emio.Codec.(pair Cells.point_codec int)

let node_ref_codec =
  Emio.Codec.map
    ~decode:(fun (tag, id) ->
      match tag with
      | 0 -> Leaf id
      | 1 -> Node id
      | t -> raise (Emio.Codec.Decode (Printf.sprintf "bad node_ref tag %d" t)))
    ~encode:(function Leaf id -> (0, id) | Node id -> (1, id))
    Emio.Codec.(pair u8 int)

let child_codec =
  Emio.Codec.map
    ~decode:(fun (cell, sub) -> { cell; sub })
    ~encode:(fun c -> (c.cell, c.sub))
    Emio.Codec.(pair Cells.cell_codec node_ref_codec)

let build ~stats ~block_size ?(cache_blocks = 0) ?(partitioner = Kd) ~dim
    points =
  Array.iter
    (fun p ->
      if Array.length p <> dim then
        invalid_arg "Partition_tree.build: wrong point dimension")
    points;
  let leaves =
    Emio.Store.create ~stats ~block_size ~cache_blocks ~codec:item_codec ()
  in
  let internals = Emio.Store.create ~stats ~block_size ~cache_blocks () in
  let partition = partition_of partitioner in
  let rec build_node (items : item array) =
    let nv = Array.length items in
    if nv <= block_size then Leaf (Emio.Store.alloc leaves items)
    else begin
      let n_blocks = (nv + block_size - 1) / block_size in
      let r = max 2 (min block_size (2 * n_blocks)) in
      let coords = Array.map (fun it -> it.coords) items in
      let parts = partition ~points:coords ~r in
      (* degenerate guard (all points equal): fall back to arbitrary
         halving so the recursion always terminates *)
      let parts =
        if Array.length parts >= 2 then
          Array.map
            (fun (cell, idxs) ->
              (cell, Array.map (fun i -> items.(i)) idxs))
            parts
        else begin
          let half = nv / 2 in
          let a = Array.sub items 0 half
          and b = Array.sub items half (nv - half) in
          Array.map
            (fun group ->
              ( Cells.bounding_box (Array.map (fun it -> it.coords) group),
                group ))
            [| a; b |]
        end
      in
      let children =
        Array.map
          (fun (cell, group) -> { cell; sub = build_node group })
          parts
      in
      Node (Emio.Store.alloc internals children)
    end
  in
  let items = Array.mapi (fun i p -> { coords = p; pid = i }) points in
  let root = if Array.length items = 0 then None else Some (build_node items) in
  { leaves; internals; root; length = Array.length points; dim; visited = 0 }

(* Report every point of a subtree: O(subtree blocks) I/Os.  Explicit
   for-loops, not Array.iter: the iteration closures were an
   allocation per node visited, which is what separates a ~30 and a
   ~60 words/query batch engine. *)
let rec report_subtree t ~report = function
  | Leaf id ->
      let items = Emio.Store.read t.leaves id in
      for i = 0 to Array.length items - 1 do
        report items.(i).pid
      done
  | Node id ->
      let children = Emio.Store.read t.internals id in
      for i = 0 to Array.length children - 1 do
        report_subtree t ~report children.(i).sub
      done

(* The shared traversal: every reported pid goes through [report], so
   the reporter-sink, list and pure-counting entry points all run the
   same (I/O-identical) walk without materializing anything. *)
let query_with t ~classify_cell ~keep_point ~report =
  t.visited <- 0;
  let rec go = function
    | Leaf id ->
        t.visited <- t.visited + 1;
        if Emio.Cost_ctx.tracing () then
          Emio.Cost_ctx.emit (Node { label = "ptree" });
        let items = Emio.Store.read t.leaves id in
        for i = 0 to Array.length items - 1 do
          let it = items.(i) in
          if keep_point it.coords then report it.pid
        done
    | Node id ->
        t.visited <- t.visited + 1;
        if Emio.Cost_ctx.tracing () then
          Emio.Cost_ctx.emit (Node { label = "ptree" });
        let children = Emio.Store.read t.internals id in
        for i = 0 to Array.length children - 1 do
          let child = children.(i) in
          match classify_cell child.cell with
          | Cells.R_inside -> report_subtree t ~report child.sub
          | Cells.R_disjoint -> ()
          | Cells.R_crossing -> go child.sub
        done
  in
  match t.root with None -> () | Some root -> go root

let simplex_classify constrs cell = Cells.classify_region cell constrs

let simplex_keep constrs p =
  List.for_all (fun c -> Cells.satisfies c p) constrs

let query_simplex t constrs =
  let acc = ref [] in
  query_with t ~classify_cell:(simplex_classify constrs)
    ~keep_point:(simplex_keep constrs)
    ~report:(fun pid -> acc := pid :: !acc);
  !acc

let halfspace_constr t ~a0 ~a =
  Cells.constr_of_halfspace ~dim:t.dim ~a0 ~a

(* Halfspace queries are the paper's (and the batch engine's) hot
   path, so they bypass the constraint-list machinery: one constr,
   classified and tested directly.  The closures below are the only
   per-query allocations — nothing is allocated per child or per
   point, where the list path paid a closure ([simplex_keep]) per
   candidate point and ref cells ([classify_region]) per cell. *)
let halfspace_classify c cell =
  match Cells.classify cell c with
  | Cells.Inside -> Cells.R_inside
  | Cells.Outside -> Cells.R_disjoint
  | Cells.Crossing -> Cells.R_crossing

let query_halfspace_with t ~a0 ~a ~report =
  let c = halfspace_constr t ~a0 ~a in
  query_with t ~classify_cell:(halfspace_classify c)
    ~keep_point:(Cells.satisfies c) ~report

let query_halfspace t ~a0 ~a =
  let acc = ref [] in
  query_halfspace_with t ~a0 ~a ~report:(fun pid -> acc := pid :: !acc);
  !acc

let query_halfspace_into t ~a0 ~a r =
  query_halfspace_with t ~a0 ~a ~report:(Emio.Reporter.add r)

let query_halfspace_iter t ~a0 ~a report =
  query_halfspace_with t ~a0 ~a ~report

let query_halfspace_count t ~a0 ~a =
  let n = ref 0 in
  query_halfspace_with t ~a0 ~a ~report:(fun _ -> incr n);
  !n

let points t =
  let out = Array.make t.length [||] in
  for i = 0 to Emio.Store.blocks_used t.leaves - 1 do
    Array.iter (fun it -> out.(it.pid) <- it.coords) (Emio.Store.read t.leaves i)
  done;
  out

(* -- persistence: leaves are the payload, internals ride in the
   skeleton (or everything is embedded, for secondary trees) --------- *)

type portable = {
  tp_internal_blocks : child array array;
  tp_root : node_ref option;
  tp_length : int;
  tp_dim : int;
  tp_block_size : int;
  tp_cache_blocks : int;
  tp_leaf_blocks : item array array option;
}

let to_portable ~embed_payload t =
  {
    tp_internal_blocks = Emio.Store.to_blocks t.internals;
    tp_root = t.root;
    tp_length = t.length;
    tp_dim = t.dim;
    tp_block_size = Emio.Store.block_size t.leaves;
    tp_cache_blocks = Emio.Store.cache_blocks t.leaves;
    tp_leaf_blocks =
      (if embed_payload then Some (Emio.Store.to_blocks t.leaves) else None);
  }

let of_portable ~stats ~backend p =
  let block_size = p.tp_block_size and cache_blocks = p.tp_cache_blocks in
  let leaves =
    match (p.tp_leaf_blocks, backend) with
    | Some blocks, _ ->
        Emio.Store.of_blocks ~stats ~block_size ~cache_blocks
          ~codec:item_codec blocks
    | None, Some backend ->
        Emio.Store.of_backend ~stats ~block_size ~cache_blocks
          ~codec:item_codec backend
    | None, None ->
        invalid_arg
          "Partition_tree.of_portable: payload not embedded, need backend"
  in
  {
    leaves;
    internals =
      Emio.Store.of_blocks ~stats ~block_size ~cache_blocks
        p.tp_internal_blocks;
    root = p.tp_root;
    length = p.tp_length;
    dim = p.tp_dim;
    visited = 0;
  }

let portable_codec =
  let open Emio.Codec in
  map
    ~decode:(fun ((ib, root), (len, dim, bs), (cb, lb)) ->
      { tp_internal_blocks = ib; tp_root = root; tp_length = len;
        tp_dim = dim; tp_block_size = bs; tp_cache_blocks = cb;
        tp_leaf_blocks = lb })
    ~encode:(fun p ->
      ( (p.tp_internal_blocks, p.tp_root),
        (p.tp_length, p.tp_dim, p.tp_block_size),
        (p.tp_cache_blocks, p.tp_leaf_blocks) ))
    (triple
       (pair (array (array child_codec)) (option node_ref_codec))
       (triple int int int)
       (pair int (option (array (array item_codec)))))

let snapshot =
  Diskstore.Snapshot.format ~kind:"lcsearch.ptree" ~version:1
    ~codec:portable_codec
    ~payload:(fun t -> (block_size t, Emio.Store.export_bytes t.leaves))
    ~to_skeleton:(to_portable ~embed_payload:false)
    ~of_skeleton:(fun ~stats ~backend ->
      of_portable ~stats ~backend:(Some backend))

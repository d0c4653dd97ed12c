open Geom
open Partition

(* The space/query tradeoff of §6 (Theorem 6.1): a §5 partition tree
   whose recursion stops at subsets of size B^a, each stored in a §4
   structure.  Space O(n log2 B) blocks; queries cost
   O((n / B^{a-1})^{2/3+eps} + t) expected I/Os. *)

type leaf = {
  hs : Halfspace3d.t; (* §4 structure over the leaf's points *)
  run : int Emio.Run.t; (* pids, for whole-leaf reporting *)
  pids : int array;
}

type node_ref = Leaf of int | Node of int

type child = { cell : Cells.cell; sub : node_ref }

type t = {
  internals : child Emio.Store.t;
  pid_store : int Emio.Store.t;
  leaves : leaf Vec.t;
  root : node_ref option;
  length : int;
  leaf_capacity : int;
  exponent : float;
  mutable secondary_queries : int;
}

let block_size t = Emio.Store.block_size t.pid_store
let leaf_capacity t = t.leaf_capacity
let last_secondary_queries t = t.secondary_queries

let space_blocks t =
  let acc = ref (Emio.Store.blocks_used t.internals) in
  Vec.iter
    (fun l ->
      acc := !acc + Halfspace3d.space_blocks l.hs + Emio.Run.block_count l.run)
    t.leaves;
  !acc

let coords_of_point3 p = [| Point3.x p; Point3.y p; Point3.z p |]

let build ~stats ~block_size ?(cache_blocks = 0) ?(a = 1.5) ?clip points =
  if a <= 1. then invalid_arg "Tradeoff3d.build: need a > 1";
  let leaf_capacity =
    max (4 * block_size)
      (int_of_float (Float.pow (float_of_int block_size) a))
  in
  let internals = Emio.Store.create ~stats ~block_size ~cache_blocks () in
  let pid_store =
    Emio.Store.create ~stats ~block_size ~cache_blocks ~codec:Emio.Codec.int ()
  in
  let leaves : leaf Vec.t = Vec.create () in
  let make_leaf (items : (Point3.t * int) array) =
    let pts = Array.map fst items in
    let pids = Array.map snd items in
    let hs = Halfspace3d.build ~stats ~block_size ~cache_blocks ?clip pts in
    Leaf
      (Vec.push_idx leaves
         { hs; run = Emio.Run.of_array pid_store pids; pids })
  in
  let rec build_node (items : (Point3.t * int) array) =
    let nv = Array.length items in
    if nv <= leaf_capacity then make_leaf items
    else begin
      let n_blocks = (nv + block_size - 1) / block_size in
      (* cap the fan-out so children stay around B^a points: otherwise
         one Θ(B)-way split overshoots the leaf capacity entirely and
         every choice of [a] would produce the same tree *)
      let r_target = (nv + leaf_capacity - 1) / leaf_capacity in
      let r = max 2 (min (min block_size (2 * n_blocks)) r_target) in
      let coords = Array.map (fun (p, _) -> coords_of_point3 p) items in
      let parts = Partitioner.kd ~points:coords ~r in
      let children =
        Array.map
          (fun (cell, idxs) ->
            { cell; sub = build_node (Array.map (fun i -> items.(i)) idxs) })
          parts
      in
      Node (Emio.Store.alloc internals children)
    end
  in
  let items = Array.mapi (fun i p -> (p, i)) points in
  let root = if Array.length items = 0 then None else Some (build_node items) in
  {
    internals;
    pid_store;
    leaves;
    root;
    length = Array.length points;
    leaf_capacity;
    exponent = a;
    secondary_queries = 0;
  }

let rec report_subtree t ~report = function
  | Leaf li ->
      let l = Vec.get t.leaves li in
      Emio.Run.iter report l.run
  | Node id ->
      Array.iter
        (fun child -> report_subtree t ~report child.sub)
        (Emio.Store.read t.internals id)

(* The shared traversal: leaves delegate to the §4 structure through
   the reporter (its doubling retries need mark/truncate rollback, so
   a plain callback will not do), then the local ids are remapped to
   global pids in place. *)
let query_ids_into t ~a ~b ~c r =
  t.secondary_queries <- 0;
  let constr = Cells.constr_of_halfspace ~dim:3 ~a0:c ~a:[| a; b |] in
  let report pid = Emio.Reporter.add r pid in
  let rec go = function
    | Leaf li ->
        t.secondary_queries <- t.secondary_queries + 1;
        let l = Vec.get t.leaves li in
        let m = Emio.Reporter.mark r in
        Halfspace3d.query_ids_into l.hs ~a ~b ~c r;
        Emio.Reporter.rewrite_from r m (fun i -> l.pids.(i))
    | Node id ->
        Array.iter
          (fun child ->
            match Cells.classify child.cell constr with
            | Cells.Inside -> report_subtree t ~report child.sub
            | Cells.Outside -> ()
            | Cells.Crossing -> go child.sub)
          (Emio.Store.read t.internals id)
  in
  match t.root with None -> () | Some root -> go root

let query_ids t ~a ~b ~c =
  let r = Emio.Reporter.create () in
  query_ids_into t ~a ~b ~c r;
  Emio.Reporter.to_list r

let query_count t ~a ~b ~c =
  t.secondary_queries <- 0;
  let constr = Cells.constr_of_halfspace ~dim:3 ~a0:c ~a:[| a; b |] in
  let n = ref 0 in
  let report _pid = incr n in
  let rec go = function
    | Leaf li ->
        t.secondary_queries <- t.secondary_queries + 1;
        let l = Vec.get t.leaves li in
        n := !n + Halfspace3d.query_count l.hs ~a ~b ~c
    | Node id ->
        Array.iter
          (fun child ->
            match Cells.classify child.cell constr with
            | Cells.Inside -> report_subtree t ~report child.sub
            | Cells.Outside -> ()
            | Cells.Crossing -> go child.sub)
          (Emio.Store.read t.internals id)
  in
  (match t.root with None -> () | Some root -> go root);
  !n

let points t =
  let out = Array.make t.length (Point3.make 0. 0. 0.) in
  Vec.iter
    (fun l ->
      Array.iteri
        (fun i p -> out.(l.pids.(i)) <- p)
        (Halfspace3d.points l.hs))
    t.leaves;
  out

(* -- persistence: the shared pid store is the payload; internals,
   the per-leaf §4 structures (fully embedded, since their payload
   stores are private to each leaf) and the pid runs ride in the
   skeleton ---------------------------------------------------------- *)

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

type leaf_p = {
  lp_hs : Halfspace3d.portable;
  lp_run : int array * int;
  lp_pids : int array;
}

type portable = {
  op_internal_blocks : child array array;
  op_leaves : leaf_p array;
  op_root : node_ref option;
  op_length : int;
  op_leaf_capacity : int;
  op_exponent : float;
  op_block_size : int;
  op_cache_blocks : int;
}

let to_portable t =
  {
    op_internal_blocks = Emio.Store.to_blocks t.internals;
    op_leaves =
      Array.map
        (fun l ->
          { lp_hs = Halfspace3d.to_portable ~embed_payload:true l.hs;
            lp_run = Emio.Run.to_portable l.run;
            lp_pids = l.pids })
        (Vec.to_array t.leaves);
    op_root = t.root;
    op_length = t.length;
    op_leaf_capacity = t.leaf_capacity;
    op_exponent = t.exponent;
    op_block_size = Emio.Store.block_size t.pid_store;
    op_cache_blocks = Emio.Store.cache_blocks t.pid_store;
  }

let of_portable ~stats ~backend p =
  let block_size = p.op_block_size and cache_blocks = p.op_cache_blocks in
  let pid_store =
    Emio.Store.of_backend ~stats ~block_size ~cache_blocks
      ~codec:Emio.Codec.int backend
  in
  let leaves : leaf Vec.t = Vec.create () in
  Array.iter
    (fun lp ->
      ignore
        (Vec.push_idx leaves
           { hs = Halfspace3d.of_portable ~stats ~backend:None lp.lp_hs;
             run = Emio.Run.of_portable pid_store lp.lp_run;
             pids = lp.lp_pids }))
    p.op_leaves;
  {
    internals =
      Emio.Store.of_blocks ~stats ~block_size ~cache_blocks
        p.op_internal_blocks;
    pid_store;
    leaves;
    root = p.op_root;
    length = p.op_length;
    leaf_capacity = p.op_leaf_capacity;
    exponent = p.op_exponent;
    secondary_queries = 0;
  }

let portable_codec =
  let open Emio.Codec in
  let leaf_p_codec =
    map
      ~decode:(fun (hs, run, pids) ->
        { lp_hs = hs; lp_run = run; lp_pids = pids })
      ~encode:(fun l -> (l.lp_hs, l.lp_run, l.lp_pids))
      (triple Halfspace3d.portable_codec Emio.Run.portable_codec (array int))
  in
  map
    ~decode:(fun ((ib, ls), (root, len, cap), (ex, bs, cb)) ->
      { op_internal_blocks = ib; op_leaves = ls; op_root = root;
        op_length = len; op_leaf_capacity = cap; op_exponent = ex;
        op_block_size = bs; op_cache_blocks = cb })
    ~encode:(fun p ->
      ( (p.op_internal_blocks, p.op_leaves),
        (p.op_root, p.op_length, p.op_leaf_capacity),
        (p.op_exponent, p.op_block_size, p.op_cache_blocks) ))
    (triple
       (pair (array (array child_codec)) (array leaf_p_codec))
       (triple (option node_ref_codec) int int)
       (triple float int int))

let snapshot =
  Diskstore.Snapshot.format ~kind:"lcsearch.tradeoff" ~version:2
    ~codec:portable_codec
    ~payload:(fun t -> (block_size t, Emio.Store.export_bytes t.pid_store))
    ~to_skeleton:to_portable ~of_skeleton:of_portable

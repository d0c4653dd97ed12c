open Partition

type node_ref = Leaf of int | Node of int

type child = { cell : Cells.cell; sub : node_ref }

type item = { coords : Cells.point; pid : int }

type t = {
  leaves : item Emio.Store.t;
  internals : child Emio.Store.t;
  (* node id -> secondary §5 structure over the same subtree points *)
  secondaries : (int, Partition_tree.t * int array) Hashtbl.t;
  root : node_ref option;
  length : int;
  dim : int;
  shallow_factor : float;
  mutable secondary_uses : int;
}

let block_size t = Emio.Store.block_size t.leaves
let dim t = t.dim
let last_secondary_uses t = t.secondary_uses

let space_blocks t =
  Emio.Store.blocks_used t.leaves
  + Emio.Store.blocks_used t.internals
  + Hashtbl.fold
      (fun _ (pt, _) acc -> acc + Partition_tree.space_blocks pt)
      t.secondaries 0

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

let build ~stats ~block_size ?(cache_blocks = 0) ?(shallow_factor = 2.0) ~dim
    points =
  if not (shallow_factor > 0.) then
    invalid_arg "Shallow_tree.build: need shallow_factor > 0";
  Array.iter
    (fun p ->
      if Array.length p <> dim then
        invalid_arg "Shallow_tree.build: wrong point dimension")
    points;
  let leaves =
    Emio.Store.create ~stats ~block_size ~cache_blocks ~codec:item_codec ()
  in
  let internals = Emio.Store.create ~stats ~block_size ~cache_blocks () in
  let secondaries = Hashtbl.create 64 in
  let rec build_node (items : item array) =
    let nv = Array.length items in
    if nv <= block_size then Leaf (Emio.Store.alloc leaves items)
    else begin
      let n_blocks = (nv + block_size - 1) / block_size in
      let r = max 2 (min block_size (2 * n_blocks)) in
      let coords = Array.map (fun it -> it.coords) items in
      let parts = Partitioner.shallow ~points:coords ~r in
      let parts =
        if Array.length parts >= 2 then
          Array.map
            (fun (cell, idxs) -> (cell, Array.map (fun i -> items.(i)) idxs))
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
        Array.map (fun (cell, group) -> { cell; sub = build_node group }) parts
      in
      let id = Emio.Store.alloc internals children in
      let secondary =
        Partition_tree.build ~stats ~block_size ~cache_blocks
          ~partitioner:Partition_tree.Kd ~dim coords
      in
      Hashtbl.add secondaries id (secondary, Array.map (fun it -> it.pid) items);
      Node id
    end
  in
  let items = Array.mapi (fun i p -> { coords = p; pid = i }) points in
  let root = if Array.length items = 0 then None else Some (build_node items) in
  {
    leaves;
    internals;
    secondaries;
    root;
    length = Array.length points;
    dim;
    shallow_factor;
    secondary_uses = 0;
  }

(* Explicit for-loops, not Array.iter: the iteration closures were an
   allocation per node visited, which the zero-allocation batch path
   cannot afford. *)
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

(* The shared traversal behind every query entry point: each reported
   pid goes through [report], so reporter-sink, list and counting
   callers run the identical (I/O-identical) walk. *)
let query_halfspace_iter t ~a0 ~a report =
  let c = Cells.constr_of_halfspace ~dim:t.dim ~a0 ~a in
  t.secondary_uses <- 0;
  let rec go = function
    | Leaf id ->
        let items = Emio.Store.read t.leaves id in
        for i = 0 to Array.length items - 1 do
          let it = items.(i) in
          if Cells.satisfies c it.coords then report it.pid
        done
    | Node id ->
        let children = Emio.Store.read t.internals id in
        let crossing = ref 0 in
        for i = 0 to Array.length children - 1 do
          match Cells.classify children.(i).cell c with
          | Cells.Crossing -> incr crossing
          | Cells.Inside | Cells.Outside -> ()
        done;
        let threshold =
          t.shallow_factor
          *. (log (float_of_int (max 2 (Array.length children))) /. log 2.)
        in
        if float_of_int !crossing > threshold then begin
          (* not shallow at this node: delegate to the §5 secondary
             structure (its output term dominates, §6) *)
          t.secondary_uses <- t.secondary_uses + 1;
          let secondary, pids = Hashtbl.find t.secondaries id in
          Partition_tree.query_halfspace_iter secondary ~a0 ~a (fun i ->
              report pids.(i))
        end
        else
          for i = 0 to Array.length children - 1 do
            let child = children.(i) in
            match Cells.classify child.cell c with
            | Cells.Inside -> report_subtree t ~report child.sub
            | Cells.Outside -> ()
            | Cells.Crossing -> go child.sub
          done
  in
  match t.root with None -> () | Some root -> go root

let query_halfspace t ~a0 ~a =
  let acc = ref [] in
  query_halfspace_iter t ~a0 ~a (fun pid -> acc := pid :: !acc);
  !acc

let query_halfspace_into t ~a0 ~a r =
  query_halfspace_iter t ~a0 ~a (Emio.Reporter.add r)

let query_halfspace_count t ~a0 ~a =
  let n = ref 0 in
  query_halfspace_iter t ~a0 ~a (fun _ -> incr n);
  !n

let points t =
  let out = Array.make t.length [||] in
  for i = 0 to Emio.Store.blocks_used t.leaves - 1 do
    Array.iter (fun it -> out.(it.pid) <- it.coords) (Emio.Store.read t.leaves i)
  done;
  out

(* -- persistence: leaves are the payload; internals and the per-node
   secondary §5 trees (fully embedded) ride in the skeleton ---------- *)

type portable = {
  sp_internal_blocks : child array array;
  sp_secondaries : (int * (Partition_tree.portable * int array)) array;
  sp_root : node_ref option;
  sp_length : int;
  sp_dim : int;
  sp_shallow_factor : float;
  sp_block_size : int;
  sp_cache_blocks : int;
}

let to_portable t =
  {
    sp_internal_blocks = Emio.Store.to_blocks t.internals;
    sp_secondaries =
      Hashtbl.fold
        (fun id (pt, pids) acc ->
          let pp = Partition_tree.to_portable ~embed_payload:true pt in
          (id, (pp, pids)) :: acc)
        t.secondaries []
      |> List.sort compare |> Array.of_list;
    sp_root = t.root;
    sp_length = t.length;
    sp_dim = t.dim;
    sp_shallow_factor = t.shallow_factor;
    sp_block_size = Emio.Store.block_size t.leaves;
    sp_cache_blocks = Emio.Store.cache_blocks t.leaves;
  }

let of_portable ~stats ~backend p =
  let block_size = p.sp_block_size and cache_blocks = p.sp_cache_blocks in
  let secondaries = Hashtbl.create 64 in
  Array.iter
    (fun (id, (pt, pids)) ->
      let pt = Partition_tree.of_portable ~stats ~backend:None pt in
      Hashtbl.add secondaries id (pt, pids))
    p.sp_secondaries;
  {
    leaves =
      Emio.Store.of_backend ~stats ~block_size ~cache_blocks ~codec:item_codec
        backend;
    internals =
      Emio.Store.of_blocks ~stats ~block_size ~cache_blocks
        p.sp_internal_blocks;
    secondaries;
    root = p.sp_root;
    length = p.sp_length;
    dim = p.sp_dim;
    shallow_factor = p.sp_shallow_factor;
    secondary_uses = 0;
  }

let portable_codec =
  let open Emio.Codec in
  map
    ~decode:(fun ((ib, secs), (root, len, dim), (sf, bs, cb)) ->
      { sp_internal_blocks = ib; sp_secondaries = secs; sp_root = root;
        sp_length = len; sp_dim = dim; sp_shallow_factor = sf;
        sp_block_size = bs; sp_cache_blocks = cb })
    ~encode:(fun p ->
      ( (p.sp_internal_blocks, p.sp_secondaries),
        (p.sp_root, p.sp_length, p.sp_dim),
        (p.sp_shallow_factor, p.sp_block_size, p.sp_cache_blocks) ))
    (triple
       (pair
          (array (array child_codec))
          (array (pair int (pair Partition_tree.portable_codec (array int)))))
       (triple (option node_ref_codec) int int)
       (triple float int int))

let snapshot =
  Diskstore.Snapshot.format ~kind:"lcsearch.shallow" ~version:1
    ~codec:portable_codec
    ~payload:(fun t -> (block_size t, Emio.Store.export_bytes t.leaves))
    ~to_skeleton:to_portable ~of_skeleton:of_portable

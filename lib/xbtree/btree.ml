type root = Leaf_root of int | Node_root of int

type ('k, 'v) t = {
  leaves : ('k * 'v) Emio.Store.t;
  internals : ('k * int) Emio.Store.t;
  root : root;
  height : int;
  length : int;
  n_leaves : int;
  cmp : 'k -> 'k -> int;
}

let height t = t.height

let space_blocks t =
  Emio.Store.blocks_used t.leaves + Emio.Store.blocks_used t.internals

let chunk ~size arr =
  let n = Array.length arr in
  let n_chunks = max 1 ((n + size - 1) / size) in
  Array.init n_chunks (fun i ->
      let lo = i * size in
      Array.sub arr lo (min size (n - lo)))

let bulk_load ~stats ~block_size ?(cache_blocks = 0) ~cmp entries =
  let n = Array.length entries in
  for i = 1 to n - 1 do
    if cmp (fst entries.(i - 1)) (fst entries.(i)) > 0 then
      invalid_arg "Btree.bulk_load: entries not sorted"
  done;
  let leaves = Emio.Store.create ~stats ~block_size ~cache_blocks () in
  let internals = Emio.Store.create ~stats ~block_size ~cache_blocks () in
  let leaf_blocks = chunk ~size:block_size entries in
  Array.iter (fun block -> ignore (Emio.Store.alloc leaves block)) leaf_blocks;
  let n_leaves = Array.length leaf_blocks in
  (* Build the internal levels bottom-up.  Each routing entry carries
     the minimum key of its child's subtree. *)
  let min_key_of_leaf i =
    let block = leaf_blocks.(i) in
    if Array.length block = 0 then None else Some (fst block.(0))
  in
  if n = 0 || n_leaves = 1 then
    {
      leaves;
      internals;
      root = Leaf_root 0;
      height = 1;
      length = n;
      n_leaves;
      cmp;
    }
  else begin
    let level =
      ref
        (Array.init n_leaves (fun i ->
             match min_key_of_leaf i with
             | Some k -> (k, i)
             | None -> assert false))
    in
    let height = ref 1 in
    while Array.length !level > 1 do
      let parents = chunk ~size:block_size !level in
      level :=
        Array.map
          (fun block ->
            let id = Emio.Store.alloc internals block in
            (fst block.(0), id))
          parents;
      incr height
    done;
    let _, root_id = (!level).(0) in
    {
      leaves;
      internals;
      root = Node_root root_id;
      height = !height;
      length = n;
      n_leaves;
      cmp;
    }
  end

(* Index of the last entry in [block] whose key (via [key_of]) is <= x,
   or -1 if none. *)
let last_leq cmp key_of block x =
  let lo = ref (-1) and hi = ref (Array.length block - 1) in
  (* invariant: entries <= lo satisfy key <= x; entries > hi don't *)
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if cmp (key_of block.(mid)) x <= 0 then lo := mid else hi := mid - 1
  done;
  !lo

(* Descend from the root to the leaf that may contain the predecessor
   of [x]; returns the leaf block id. *)
let descend t x =
  match t.root with
  | Leaf_root id -> id
  | Node_root root_id ->
      let rec go node_id depth =
        let block = Emio.Store.read t.internals node_id in
        let idx = last_leq t.cmp fst block x in
        let idx = max idx 0 (* x below everything: take leftmost path *) in
        let _, child = block.(idx) in
        if depth = 2 then child else go child (depth - 1)
      in
      go root_id t.height

let predecessor t x =
  if t.length = 0 then None
  else begin
    let leaf_id = ref (descend t x) in
    let result = ref None in
    (* the predecessor is in this leaf unless x precedes all its keys,
       in which case it is the last entry of some previous leaf *)
    let continue_search = ref true in
    while !continue_search do
      let block = Emio.Store.read t.leaves !leaf_id in
      let idx = last_leq t.cmp fst block x in
      if idx >= 0 then begin
        result := Some block.(idx);
        continue_search := false
      end
      else if !leaf_id = 0 then continue_search := false
      else leaf_id := !leaf_id - 1
    done;
    !result
  end

(* -- persistence: the tree minus its comparator ------------------- *)

type ('k, 'v) portable = {
  p_leaf_blocks : ('k * 'v) array array;
  p_internal_blocks : ('k * int) array array;
  p_root : root;
  p_height : int;
  p_length : int;
  p_n_leaves : int;
  p_block_size : int;
  p_cache_blocks : int;
}

let to_portable t =
  {
    p_leaf_blocks = Emio.Store.to_blocks t.leaves;
    p_internal_blocks = Emio.Store.to_blocks t.internals;
    p_root = t.root;
    p_height = t.height;
    p_length = t.length;
    p_n_leaves = t.n_leaves;
    p_block_size = Emio.Store.block_size t.leaves;
    p_cache_blocks = Emio.Store.cache_blocks t.leaves;
  }

let of_portable ~stats ~cmp p =
  let block_size = p.p_block_size and cache_blocks = p.p_cache_blocks in
  {
    leaves = Emio.Store.of_blocks ~stats ~block_size ~cache_blocks p.p_leaf_blocks;
    internals =
      Emio.Store.of_blocks ~stats ~block_size ~cache_blocks p.p_internal_blocks;
    root = p.p_root;
    height = p.p_height;
    length = p.p_length;
    n_leaves = p.p_n_leaves;
    cmp;
  }

let portable_codec key value =
  let open Emio.Codec in
  let root_codec =
    map
      ~decode:(fun (tag, id) ->
        match tag with
        | 0 -> Leaf_root id
        | 1 -> Node_root id
        | t -> raise (Decode (Printf.sprintf "bad btree root tag %d" t)))
      ~encode:(function Leaf_root id -> (0, id) | Node_root id -> (1, id))
      (pair u8 int)
  in
  map
    ~decode:(fun ((lb, ib, root), (h, len, nl), (bs, cb)) ->
      {
        p_leaf_blocks = lb;
        p_internal_blocks = ib;
        p_root = root;
        p_height = h;
        p_length = len;
        p_n_leaves = nl;
        p_block_size = bs;
        p_cache_blocks = cb;
      })
    ~encode:(fun p ->
      ( (p.p_leaf_blocks, p.p_internal_blocks, p.p_root),
        (p.p_height, p.p_length, p.p_n_leaves),
        (p.p_block_size, p.p_cache_blocks) ))
    (triple
       (triple
          (array (array (pair key value)))
          (array (array (pair key int)))
          root_codec)
       (triple int int int)
       (pair int int))

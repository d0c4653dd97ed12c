open Geom

type node_ref = Leaf of int | Node of int

type entry = { mbr : Rect.t; sub : node_ref }

(* Leaf items carry the point's build-time index: packing permutes
   the input, so the position in a leaf says nothing about it. *)
type t = {
  leaves : (Point2.t * int) Emio.Store.t;
  internals : entry Emio.Store.t;
  root : node_ref option;
  root_mbr : Rect.t;
  length : int;
  height : int;
}

let block_size t = Emio.Store.block_size t.leaves
let height t = t.height

let space_blocks t =
  Emio.Store.blocks_used t.leaves + Emio.Store.blocks_used t.internals

type packing = Str | Hilbert

(* Hilbert index of a cell (x, y) of the 2^order x 2^order grid;
   the classical bit-by-bit rotation construction. *)
let hilbert_index ~order x y =
  let x = ref x and y = ref y and d = ref 0 in
  let s = ref (1 lsl (order - 1)) in
  while !s > 0 do
    let rx = if !x land !s > 0 then 1 else 0 in
    let ry = if !y land !s > 0 then 1 else 0 in
    d := !d + (!s * !s * ((3 * rx) lxor ry));
    (* rotate the quadrant *)
    if ry = 0 then begin
      if rx = 1 then begin
        x := !s - 1 - !x;
        y := !s - 1 - !y
      end;
      let tmp = !x in
      x := !y;
      y := tmp
    end;
    s := !s / 2
  done;
  !d

(* Hilbert packing: sort by the Hilbert index of the quantized
   coordinates and chop into blocks of B. *)
let hilbert_pack ~block_size points =
  let n = Array.length points in
  let bbox = Rect.of_points (Array.map fst points) in
  let order = 16 in
  let side = float_of_int ((1 lsl order) - 1) in
  let quantize v lo hi =
    if hi <= lo then 0
    else int_of_float ((v -. lo) /. (hi -. lo) *. side)
  in
  let keyed =
    Array.map
      (fun ((p, _) as item) ->
        ( hilbert_index ~order
            (quantize (Point2.x p) bbox.Rect.x0 bbox.Rect.x1)
            (quantize (Point2.y p) bbox.Rect.y0 bbox.Rect.y1),
          item ))
      points
  in
  Array.sort (fun (a, _) (b, _) -> compare a b) keyed;
  let n_leaves = (n + block_size - 1) / block_size in
  Array.init n_leaves (fun i ->
      let lo = i * block_size in
      let len = min block_size (n - lo) in
      Array.init len (fun j -> snd keyed.(lo + j)))

(* Sort-Tile-Recursive packing: sort by x, cut into vertical slices of
   ~sqrt(N/B) * B points, sort each slice by y, pack runs of B. *)
let str_pack ~block_size points =
  let n = Array.length points in
  let pts = Array.copy points in
  Array.sort (fun (p, _) (q, _) -> Float.compare (Point2.x p) (Point2.x q)) pts;
  let n_leaves = (n + block_size - 1) / block_size in
  let slices = max 1 (int_of_float (ceil (sqrt (float_of_int n_leaves)))) in
  let slice_size = ((n_leaves + slices - 1) / slices) * block_size in
  let groups = ref [] in
  let i = ref 0 in
  while !i < n do
    let len = min slice_size (n - !i) in
    let slice = Array.sub pts !i len in
    Array.sort (fun (p, _) (q, _) -> Float.compare (Point2.y p) (Point2.y q))
      slice;
    let j = ref 0 in
    while !j < len do
      let blen = min block_size (len - !j) in
      groups := Array.sub slice !j blen :: !groups;
      j := !j + blen
    done;
    i := !i + len
  done;
  Array.of_list (List.rev !groups)

let build ~stats ~block_size ?(cache_blocks = 0) ?(packing = Str) points =
  let leaves =
    Emio.Store.create ~stats ~block_size ~cache_blocks
      ~codec:Point2.indexed_codec ()
  in
  let internals = Emio.Store.create ~stats ~block_size ~cache_blocks () in
  if Array.length points = 0 then
    {
      leaves;
      internals;
      root = None;
      root_mbr = { Rect.x0 = 0.; y0 = 0.; x1 = 0.; y1 = 0. };
      length = 0;
      height = 0;
    }
  else begin
    let items = Array.mapi (fun i p -> (p, i)) points in
    let leaf_groups =
      match packing with
      | Str -> str_pack ~block_size items
      | Hilbert -> hilbert_pack ~block_size items
    in
    let level =
      ref
        (Array.map
           (fun group ->
             {
               mbr = Rect.of_points (Array.map fst group);
               (* fresh items in leaf order: a leaf scan then walks
                  adjacent memory instead of two scattered blocks per
                  item (the counting loop is ~30% slower otherwise) *)
               sub =
                 Leaf
                   (Emio.Store.alloc leaves
                      (Array.map
                         (fun ((p : Point2.t), id) ->
                           (Point2.make p.Point2.x p.Point2.y, id))
                         group));
             })
           leaf_groups)
    in
    let height = ref 1 in
    while Array.length !level > 1 do
      (* pack parent entries STR-style on MBR centers *)
      let entries = !level in
      Array.sort
        (fun a b -> Float.compare (a.mbr.Rect.x0 +. a.mbr.Rect.x1) (b.mbr.Rect.x0 +. b.mbr.Rect.x1))
        entries;
      let n_nodes = (Array.length entries + block_size - 1) / block_size in
      let slices = max 1 (int_of_float (ceil (sqrt (float_of_int n_nodes)))) in
      let slice_size = ((n_nodes + slices - 1) / slices) * block_size in
      let parents = ref [] in
      let i = ref 0 in
      while !i < Array.length entries do
        let len = min slice_size (Array.length entries - !i) in
        let slice = Array.sub entries !i len in
        Array.sort
          (fun a b ->
            Float.compare (a.mbr.Rect.y0 +. a.mbr.Rect.y1) (b.mbr.Rect.y0 +. b.mbr.Rect.y1))
          slice;
        let j = ref 0 in
        while !j < len do
          let blen = min block_size (len - !j) in
          let group = Array.sub slice !j blen in
          let mbr =
            Array.fold_left
              (fun acc e -> Rect.union acc e.mbr)
              group.(0).mbr group
          in
          parents := { mbr; sub = Node (Emio.Store.alloc internals group) } :: !parents;
          j := !j + blen
        done;
        i := !i + len
      done;
      level := Array.of_list (List.rev !parents);
      incr height
    done;
    let root_entry = (!level).(0) in
    {
      leaves;
      internals;
      root = Some root_entry.sub;
      root_mbr = root_entry.mbr;
      length = Array.length points;
      height = !height;
    }
  end

let rec report_all t f = function
  | Leaf id -> Array.iter f (Emio.Store.read t.leaves id)
  | Node id ->
      Array.iter
        (fun e -> report_all t f e.sub)
        (Emio.Store.read t.internals id)

(* The shared traversal: list and id-sink callers run the identical
   (I/O-identical) walk; [f] sees each answering (point, id) item. *)
let query_visit t ~classify ~keep f =
  let rec go = function
    | Leaf id ->
        Array.iter
          (fun ((p, _) as item) -> if keep p then f item)
          (Emio.Store.read t.leaves id)
    | Node id ->
        Array.iter
          (fun e ->
            match classify e.mbr with
            | Rect.Inside -> report_all t f e.sub
            | Rect.Outside -> ()
            | Rect.Crossing -> go e.sub)
          (Emio.Store.read t.internals id)
  in
  match t.root with
  | None -> ()
  | Some root -> (
      match classify t.root_mbr with
      | Rect.Outside -> ()
      | Rect.Inside -> report_all t f root
      | Rect.Crossing -> go root)

let query_fold t ~classify ~keep =
  let acc = ref [] in
  query_visit t ~classify ~keep (fun (p, _) -> acc := p :: !acc);
  !acc

let halfplane_classify ~slope ~icept r = Rect.classify r ~slope ~icept

let halfplane_keep ~slope ~icept (p : Point2.t) =
  p.Point2.y <= (slope *. p.Point2.x) +. icept +. Eps.eps

let query_ids_into t ~slope ~icept r =
  query_visit t
    ~classify:(halfplane_classify ~slope ~icept)
    ~keep:(halfplane_keep ~slope ~icept)
    (fun (_, id) -> Emio.Reporter.add r id)

let query_halfplane t ~slope ~icept =
  query_fold t
    ~classify:(halfplane_classify ~slope ~icept)
    ~keep:(halfplane_keep ~slope ~icept)

(* Counting fast path: the same traversal (identical Store.read
   sequence) as [query_visit] with the classify/keep closures unrolled
   into direct float comparisons, [Inside] subtrees counted by leaf
   lengths instead of per-point visits, and no per-entry closure
   calls.  Keep the classification arithmetic in sync with
   [Rect.classify] and [halfplane_keep]. *)
let query_count t ~slope ~icept =
  let open Rect in
  let rec count_all nr =
    match nr with
    | Leaf id -> Array.length (Emio.Store.read t.leaves id)
    | Node id ->
        let es = Emio.Store.read t.internals id in
        let n = ref 0 in
        for i = 0 to Array.length es - 1 do
          n := !n + count_all es.(i).sub
        done;
        !n
  in
  let rec go nr =
    match nr with
    | Leaf id ->
        let pts = Emio.Store.read t.leaves id in
        let n = ref 0 in
        for i = 0 to Array.length pts - 1 do
          let p, _ = pts.(i) in
          if p.Point2.y <= (slope *. p.Point2.x) +. icept +. Eps.eps then
            incr n
        done;
        !n
    | Node id ->
        let es = Emio.Store.read t.internals id in
        let n = ref 0 in
        for i = 0 to Array.length es - 1 do
          let e = es.(i) in
          let r = e.mbr in
          let fmax =
            r.y1 -. (slope *. if slope >= 0. then r.x0 else r.x1) -. icept
          in
          if fmax <= Eps.eps then n := !n + count_all e.sub
          else begin
            let fmin =
              r.y0 -. (slope *. if slope >= 0. then r.x1 else r.x0) -. icept
            in
            if fmin <= Eps.eps then n := !n + go e.sub
          end
        done;
        !n
  in
  match t.root with
  | None -> 0
  | Some root -> (
      match Rect.classify t.root_mbr ~slope ~icept with
      | Rect.Outside -> 0
      | Rect.Inside -> count_all root
      | Rect.Crossing -> go root)

let query_window t w =
  query_fold t
    ~classify:(fun r ->
      if w.Rect.x0 <= r.Rect.x0 && r.Rect.x1 <= w.Rect.x1
         && w.Rect.y0 <= r.Rect.y0 && r.Rect.y1 <= w.Rect.y1
      then Rect.Inside
      else if Rect.intersects r w then Rect.Crossing
      else Rect.Outside)
    ~keep:(fun p -> Rect.contains w p)

(* Persistence: the leaf store is the snapshot payload; the internal
   levels (O(n/B) entries) ride in the skeleton and stay in memory,
   like a real system pinning index nodes.  [kind] is a parameter so
   the Hilbert-packed variant can stamp its own snapshot kind (the
   registry requires kinds to be injective across structures). *)

let node_ref_codec =
  Emio.Codec.map
    ~decode:(fun (tag, id) ->
      match tag with
      | 0 -> Leaf id
      | 1 -> Node id
      | t -> raise (Emio.Codec.Decode (Printf.sprintf "bad node_ref tag %d" t)))
    ~encode:(function Leaf id -> (0, id) | Node id -> (1, id))
    Emio.Codec.(pair u8 int)

let entry_codec =
  Emio.Codec.map
    ~decode:(fun (mbr, sub) -> { mbr; sub })
    ~encode:(fun e -> (e.mbr, e.sub))
    Emio.Codec.(pair Rect.codec node_ref_codec)

type portable = {
  rp_internal_blocks : entry array array;
  rp_root : node_ref option;
  rp_root_mbr : Rect.t;
  rp_length : int;
  rp_height : int;
  rp_block_size : int;
  rp_cache_blocks : int;
}

let to_portable t =
  {
    rp_internal_blocks = Emio.Store.to_blocks t.internals;
    rp_root = t.root;
    rp_root_mbr = t.root_mbr;
    rp_length = t.length;
    rp_height = t.height;
    rp_block_size = Emio.Store.block_size t.leaves;
    rp_cache_blocks = Emio.Store.cache_blocks t.leaves;
  }

let of_portable ~stats ~backend p =
  let block_size = p.rp_block_size and cache_blocks = p.rp_cache_blocks in
  {
    leaves =
      Emio.Store.of_backend ~stats ~block_size ~cache_blocks
        ~codec:Point2.indexed_codec backend;
    internals =
      Emio.Store.of_blocks ~stats ~block_size ~cache_blocks
        p.rp_internal_blocks;
    root = p.rp_root;
    root_mbr = p.rp_root_mbr;
    length = p.rp_length;
    height = p.rp_height;
  }

let portable_codec =
  let open Emio.Codec in
  map
    ~decode:(fun ((ib, root, mbr), (len, h), (bs, cb)) ->
      { rp_internal_blocks = ib; rp_root = root; rp_root_mbr = mbr;
        rp_length = len; rp_height = h; rp_block_size = bs;
        rp_cache_blocks = cb })
    ~encode:(fun p ->
      ( (p.rp_internal_blocks, p.rp_root, p.rp_root_mbr),
        (p.rp_length, p.rp_height),
        (p.rp_block_size, p.rp_cache_blocks) ))
    (triple
       (triple (array (array entry_codec)) (option node_ref_codec) Rect.codec)
       (pair int int) (pair int int))

let snapshot_format ~kind =
  Diskstore.Snapshot.format ~kind ~version:2 ~codec:portable_codec
    ~payload:(fun t -> (block_size t, Emio.Store.export_bytes t.leaves))
    ~to_skeleton:to_portable ~of_skeleton:of_portable

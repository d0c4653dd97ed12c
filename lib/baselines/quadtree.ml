open Geom

type node_ref = Leaf of int | Node of int

(* an internal node block stores its four children: NW NE SW SE *)
type child = { quadrant : Rect.t; sub : node_ref option }

(* Leaf items carry the point's build-time index: the quadrant split
   permutes the input. *)
type t = {
  leaves : (Point2.t * int) Emio.Store.t;
  internals : child Emio.Store.t;
  root : node_ref option;
  bbox : Rect.t;
  length : int;
  mutable max_depth_seen : int;
}

let block_size t = Emio.Store.block_size t.leaves
let depth t = t.max_depth_seen

let space_blocks t =
  Emio.Store.blocks_used t.leaves + Emio.Store.blocks_used t.internals

let quadrants (r : Rect.t) =
  let mx = (r.Rect.x0 +. r.Rect.x1) /. 2. and my = (r.Rect.y0 +. r.Rect.y1) /. 2. in
  [|
    { Rect.x0 = r.Rect.x0; y0 = my; x1 = mx; y1 = r.Rect.y1 };
    { Rect.x0 = mx; y0 = my; x1 = r.Rect.x1; y1 = r.Rect.y1 };
    { Rect.x0 = r.Rect.x0; y0 = r.Rect.y0; x1 = mx; y1 = my };
    { Rect.x0 = mx; y0 = r.Rect.y0; x1 = r.Rect.x1; y1 = my };
  |]

(* Depth cap: a cell holding more than B coincident points would
   otherwise split forever. *)
let max_depth = 40

let build ~stats ~block_size ?(cache_blocks = 0) points =
  let leaves =
    Emio.Store.create ~stats ~block_size ~cache_blocks
      ~codec:Point2.indexed_codec ()
  in
  let internals = Emio.Store.create ~stats ~block_size ~cache_blocks () in
  let n = Array.length points in
  let bbox =
    if n = 0 then { Rect.x0 = 0.; y0 = 0.; x1 = 1.; y1 = 1. }
    else Rect.of_points points
  in
  let t =
    { leaves; internals; root = None; bbox; length = n; max_depth_seen = 0 }
  in
  let rec build_node pts rect d =
    if d > t.max_depth_seen then t.max_depth_seen <- d;
    if Array.length pts = 0 then None
    else if Array.length pts <= block_size || d >= max_depth then
      Some (Leaf (Emio.Store.alloc leaves pts))
    else begin
      let qs = quadrants rect in
      let mx = (rect.Rect.x0 +. rect.Rect.x1) /. 2.
      and my = (rect.Rect.y0 +. rect.Rect.y1) /. 2. in
      let pick (p, _) =
        let east = Point2.x p >= mx and north = Point2.y p >= my in
        match (north, east) with
        | true, false -> 0
        | true, true -> 1
        | false, false -> 2
        | false, true -> 3
      in
      let parts = [| []; []; []; [] |] in
      Array.iter (fun p -> parts.(pick p) <- p :: parts.(pick p)) pts;
      let children =
        Array.init 4 (fun i ->
            {
              quadrant = qs.(i);
              sub = build_node (Array.of_list parts.(i)) qs.(i) (d + 1);
            })
      in
      Some (Node (Emio.Store.alloc internals children))
    end
  in
  let root = build_node (Array.mapi (fun i p -> (p, i)) points) bbox 0 in
  { t with root }

let rec report_all t f = function
  | Leaf id -> Array.iter f (Emio.Store.read t.leaves id)
  | Node id ->
      Array.iter
        (fun ch -> match ch.sub with None -> () | Some s -> report_all t f s)
        (Emio.Store.read t.internals id)

(* The shared traversal: list, id-sink and counting callers run the
   identical (I/O-identical) walk; [f] sees each answering (point, id)
   item. *)
let query_visit t ~slope ~icept f =
  let keep (p : Point2.t) =
    p.Point2.y <= (slope *. p.Point2.x) +. icept +. Eps.eps
  in
  let rec go = function
    | Leaf id ->
        Array.iter
          (fun ((p, _) as item) -> if keep p then f item)
          (Emio.Store.read t.leaves id)
    | Node id ->
        Array.iter
          (fun ch ->
            match ch.sub with
            | None -> ()
            | Some s -> (
                match Rect.classify ch.quadrant ~slope ~icept with
                | Rect.Inside -> report_all t f s
                | Rect.Outside -> ()
                | Rect.Crossing -> go s))
          (Emio.Store.read t.internals id)
  in
  match t.root with
  | None -> ()
  | Some root -> (
      match Rect.classify t.bbox ~slope ~icept with
      | Rect.Inside -> report_all t f root
      | Rect.Outside -> ()
      | Rect.Crossing -> go root)

let query_ids_into t ~slope ~icept r =
  query_visit t ~slope ~icept (fun (_, id) -> Emio.Reporter.add r id)

let query_halfplane t ~slope ~icept =
  let acc = ref [] in
  query_visit t ~slope ~icept (fun (p, _) -> acc := p :: !acc);
  !acc

let query_count t ~slope ~icept =
  let n = ref 0 in
  query_visit t ~slope ~icept (fun _ -> incr n);
  !n

(* -- persistence: leaves are the payload; the quadrant blocks ride in
   the skeleton ------------------------------------------------------ *)

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
    ~decode:(fun (quadrant, sub) -> { quadrant; sub })
    ~encode:(fun c -> (c.quadrant, c.sub))
    Emio.Codec.(pair Rect.codec (option node_ref_codec))

type portable = {
  qp_internal_blocks : child array array;
  qp_root : node_ref option;
  qp_bbox : Rect.t;
  qp_length : int;
  qp_max_depth_seen : int;
  qp_block_size : int;
  qp_cache_blocks : int;
}

let to_portable t =
  {
    qp_internal_blocks = Emio.Store.to_blocks t.internals;
    qp_root = t.root;
    qp_bbox = t.bbox;
    qp_length = t.length;
    qp_max_depth_seen = t.max_depth_seen;
    qp_block_size = Emio.Store.block_size t.leaves;
    qp_cache_blocks = Emio.Store.cache_blocks t.leaves;
  }

let of_portable ~stats ~backend p =
  let block_size = p.qp_block_size and cache_blocks = p.qp_cache_blocks in
  {
    leaves =
      Emio.Store.of_backend ~stats ~block_size ~cache_blocks
        ~codec:Point2.indexed_codec backend;
    internals =
      Emio.Store.of_blocks ~stats ~block_size ~cache_blocks
        p.qp_internal_blocks;
    root = p.qp_root;
    bbox = p.qp_bbox;
    length = p.qp_length;
    max_depth_seen = p.qp_max_depth_seen;
  }

let portable_codec =
  let open Emio.Codec in
  map
    ~decode:(fun ((ib, root, bbox), (len, d), (bs, cb)) ->
      { qp_internal_blocks = ib; qp_root = root; qp_bbox = bbox;
        qp_length = len; qp_max_depth_seen = d; qp_block_size = bs;
        qp_cache_blocks = cb })
    ~encode:(fun p ->
      ( (p.qp_internal_blocks, p.qp_root, p.qp_bbox),
        (p.qp_length, p.qp_max_depth_seen),
        (p.qp_block_size, p.qp_cache_blocks) ))
    (triple
       (triple (array (array child_codec)) (option node_ref_codec) Rect.codec)
       (pair int int) (pair int int))

let snapshot =
  Diskstore.Snapshot.format ~kind:"lcsearch.quadtree" ~version:2
    ~codec:portable_codec
    ~payload:(fun t -> (block_size t, Emio.Store.export_bytes t.leaves))
    ~to_skeleton:to_portable ~of_skeleton:of_portable

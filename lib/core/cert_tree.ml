open Geom
open Partition

type node_ref = Leaf of int | Node of int

(* A child entry: the kd cell, plus the positions of the child's lower
   and upper hull certificates in the shared certificate run (len 0
   means no certificate: classify by cell only). *)
type child = {
  cell : Cells.cell;
  sub : node_ref;
  lo_start : int;
  lo_len : int;
  up_start : int;
  up_len : int;
}

type item = { px : float; py : float; pz : float; pid : int }

(* Certificate vertices are stored FLAT: the certificate run is a
   [float Emio.Run.t] holding three floats per vertex — x, y, z — in
   stride-3 slots, and its store's block size is 3B floats so each
   block holds exactly B vertices and every block boundary (hence
   every I/O charge) is identical to the boxed one-point-per-item
   layout this replaces.  The gap scans then read unboxed floats
   sequentially instead of calling boxed Point3 accessors per vertex,
   which is where most of the cert query allocation went (child
   [lo_start]/[up_start] positions count vertices, not floats). *)
let cert_stride = 3

type t = {
  leaves : item Emio.Store.t;
  internals : child Emio.Store.t;
  certs : float Emio.Run.t; (* stride-3 flat vertices *)
  root : node_ref option;
  length : int;
  cert_items : int;
  mutable visited : int;
}

let block_size t = Emio.Store.block_size t.leaves
let last_visited_nodes t = t.visited
let certificate_items t = t.cert_items

let space_blocks t =
  Emio.Store.blocks_used t.leaves
  + Emio.Store.blocks_used t.internals
  + Emio.Run.block_count t.certs

let point3_of it = Point3.make it.px it.py it.pz

let item_codec =
  Emio.Codec.map
    ~decode:(fun ((px, py, pz), pid) -> { px; py; pz; pid })
    ~encode:(fun it -> ((it.px, it.py, it.pz), it.pid))
    Emio.Codec.(pair (triple float float float) int)

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
    ~decode:(fun ((cell, sub), (lo_start, lo_len), (up_start, up_len)) ->
      { cell; sub; lo_start; lo_len; up_start; up_len })
    ~encode:(fun c ->
      ((c.cell, c.sub), (c.lo_start, c.lo_len), (c.up_start, c.up_len)))
    Emio.Codec.(
      triple
        (pair Cells.cell_codec node_ref_codec)
        (pair int int) (pair int int))

let hull_certificates ~order points =
  let nv = Array.length points in
  match Hull3.build ~points ~order ~sample_size:nv with
  | exception Invalid_argument _ -> None
  | hull ->
      let facets = Hull3.facets hull in
      let collect keep =
        let on = Array.make nv false in
        Array.iter
          (fun (f : Hull3.facet) ->
            if keep (Point3.z f.normal) then begin
              on.(f.a) <- true;
              on.(f.b) <- true;
              on.(f.c) <- true
            end)
          facets;
        let out = ref [] in
        for v = nv - 1 downto 0 do
          if on.(v) then out := v :: !out
        done;
        Array.of_list !out
      in
      Some (collect (fun z -> z < 0.), collect (fun z -> z > 0.))

(* Lower and upper hull vertex sets of a point set, or the whole set
   when it is small, or None when the hulls exceed the cap.  The hull
   inserts the points in a random order seeded by the group size: the
   kd order they arrive in is the incremental hull's slow case, and
   the certificates do not depend on the order. *)
let certificates ~cert_cap points =
  let nv = Array.length points in
  if nv <= cert_cap then Some (points, points)
  else
    let order = Hull3.random_order (Random.State.make [| nv; 0xce27 |]) nv in
    match hull_certificates ~order points with
    | Some (lower, upper)
      when Array.length lower <= cert_cap
           && Array.length upper <= cert_cap
           && Array.length lower > 0
           && Array.length upper > 0 ->
        let at = Array.map (Array.get points) in
        Some (at lower, at upper)
    | _ -> None

let build ~stats ~block_size ?(cache_blocks = 0) points =
  let cert_cap = 2 * block_size in
  let leaves =
    Emio.Store.create ~stats ~block_size ~cache_blocks ~codec:item_codec ()
  in
  let internals = Emio.Store.create ~stats ~block_size ~cache_blocks () in
  let cert_store =
    Emio.Store.create ~stats ~block_size:(cert_stride * block_size)
      ~cache_blocks ~codec:Emio.Codec.float ()
  in
  let cert_buffer : Point3.t list ref = ref [] in
  let cert_pos = ref 0 in
  let push_certs arr =
    let start = !cert_pos in
    Array.iter (fun p -> cert_buffer := p :: !cert_buffer) arr;
    cert_pos := !cert_pos + Array.length arr;
    (start, Array.length arr)
  in
  let rec build_node (items : item array) =
    let nv = Array.length items in
    if nv <= block_size then Leaf (Emio.Store.alloc leaves items)
    else begin
      let n_blocks = (nv + block_size - 1) / block_size in
      let r = max 2 (min block_size (2 * n_blocks)) in
      let coords = Array.map (fun it -> [| it.px; it.py; it.pz |]) items in
      let parts = Partitioner.kd ~points:coords ~r in
      let children =
        Array.map
          (fun (cell, idxs) ->
            let group = Array.map (fun i -> items.(i)) idxs in
            let lo_start, lo_len, up_start, up_len =
              match certificates ~cert_cap (Array.map point3_of group) with
              | None -> (0, 0, 0, 0)
              | Some (lower, upper) ->
                  let ls, ll = push_certs lower in
                  let us, ul = push_certs upper in
                  (ls, ll, us, ul)
            in
            { cell; sub = build_node group; lo_start; lo_len; up_start; up_len })
          parts
      in
      Node (Emio.Store.alloc internals children)
    end
  in
  let items =
    Array.mapi
      (fun i p -> { px = Point3.x p; py = Point3.y p; pz = Point3.z p; pid = i })
      points
  in
  let root = if Array.length items = 0 then None else Some (build_node items) in
  let certs =
    (* flatten the collected vertices into stride-3 slots; blocks of
       3B floats hold exactly B vertices, so of_array charges the same
       ⌈items/B⌉ writes as the boxed layout did *)
    let flat = Array.make (cert_stride * !cert_pos) 0. in
    List.iteri
      (fun i p ->
        let f = cert_stride * (!cert_pos - 1 - i) in
        flat.(f) <- Point3.x p;
        flat.(f + 1) <- Point3.y p;
        flat.(f + 2) <- Point3.z p)
      !cert_buffer;
    Emio.Run.of_array cert_store flat
  in
  {
    leaves;
    internals;
    certs;
    root;
    length = Array.length points;
    cert_items = !cert_pos;
    visited = 0;
  }

let rec report_subtree t ~report = function
  | Leaf id ->
      let block = Emio.Store.read t.leaves id in
      for i = 0 to Array.length block - 1 do
        report block.(i).pid
      done
  | Node id ->
      let children = Emio.Store.read t.internals id in
      for i = 0 to Array.length children - 1 do
        report_subtree t ~report children.(i).sub
      done

(* Single-field all-float record: mutating it updates the unboxed
   float in place, where a [float ref] would box a fresh float per
   assignment on the certificate scans. *)
type fbox = { mutable fv : float }

(* Minimum ([want_min]) or maximum of the affine gap
   z - ax·x - ay·y - a0 over certificate vertices [start, start+len)
   of the flat stride-3 run: the certificate store's block size is 3B
   floats, so vertex i's slots live in block i/B — the same block
   index (and the same read charges) the boxed scan paid.  Explicit
   indexed loops on the unboxed float blocks: no closure, no Point3
   accessor boxing — this scan ran per crossing child and was the bulk
   of the ~10k words/query the old pipeline allocated. *)
let gap_extreme certs ~ax ~ay ~a0 ~start ~len ~want_min =
  let acc = { fv = (if want_min then infinity else neg_infinity) } in
  let b = Emio.Store.block_size (Emio.Run.store certs) / cert_stride in
  let first = start / b and last = (start + len - 1) / b in
  for blk = first to last do
    let block = Emio.Run.read_block certs blk in
    let block_lo = blk * b in
    let lo = max 0 (start - block_lo) in
    let hi = min (Array.length block / cert_stride) (start + len - block_lo) in
    (* the loop bounds prove every access in range: cert_stride*hi <=
       Array.length block (hi is clamped to it) *)
    if want_min then
      for i = lo to hi - 1 do
        let f = cert_stride * i in
        let g =
          Array.unsafe_get block (f + 2)
          -. (ax *. Array.unsafe_get block f)
          -. (ay *. Array.unsafe_get block (f + 1))
          -. a0
        in
        if g < acc.fv then acc.fv <- g
      done
    else
      for i = lo to hi - 1 do
        let f = cert_stride * i in
        let g =
          Array.unsafe_get block (f + 2)
          -. (ax *. Array.unsafe_get block f)
          -. (ay *. Array.unsafe_get block (f + 1))
          -. a0
        in
        if g > acc.fv then acc.fv <- g
      done
  done;
  acc.fv

(* The shared traversal: each reported pid goes through [report], so
   list, reporter-sink and counting callers run identical I/Os. *)
let query_iter t ~a0 ~a report =
  if Array.length a <> 2 then
    invalid_arg "Cert_tree.query_ids: need 2 slope coefficients";
  let constr = Cells.constr_of_halfspace ~dim:3 ~a0 ~a in
  let ax = a.(0) and ay = a.(1) in
  t.visited <- 0;
  let rec go = function
    | Leaf id ->
        t.visited <- t.visited + 1;
        let block = Emio.Store.read t.leaves id in
        for i = 0 to Array.length block - 1 do
          let it = block.(i) in
          if it.pz -. (ax *. it.px) -. (ay *. it.py) -. a0 <= Eps.eps then
            report it.pid
        done
    | Node id ->
        t.visited <- t.visited + 1;
        let children = Emio.Store.read t.internals id in
        for ci = 0 to Array.length children - 1 do
          let child = children.(ci) in
          match Cells.classify child.cell constr with
          | Cells.Inside -> report_subtree t ~report child.sub
          | Cells.Outside -> ()
          | Cells.Crossing ->
              if child.lo_len = 0 then go child.sub
              else begin
                (* exact point-set classification via the hulls *)
                let min_gap =
                  gap_extreme t.certs ~ax ~ay ~a0 ~start:child.lo_start
                    ~len:child.lo_len ~want_min:true
                in
                if min_gap > Eps.eps then () (* no point below *)
                else begin
                  let max_gap =
                    gap_extreme t.certs ~ax ~ay ~a0 ~start:child.up_start
                      ~len:child.up_len ~want_min:false
                  in
                  if max_gap <= Eps.eps then report_subtree t ~report child.sub
                  else go child.sub
                end
              end
        done
  in
  match t.root with None -> () | Some root -> go root

let query_ids t ~a0 ~a =
  let acc = ref [] in
  query_iter t ~a0 ~a (fun pid -> acc := pid :: !acc);
  !acc

let query_ids_into t ~a0 ~a r = query_iter t ~a0 ~a (Emio.Reporter.add r)

let query_count t ~a0 ~a =
  let n = ref 0 in
  query_iter t ~a0 ~a (fun _ -> incr n);
  !n

let points t =
  let out = Array.make t.length (Point3.make 0. 0. 0.) in
  for i = 0 to Emio.Store.blocks_used t.leaves - 1 do
    Array.iter
      (fun it -> out.(it.pid) <- point3_of it)
      (Emio.Store.read t.leaves i)
  done;
  out

(* -- persistence: leaves are the payload; internals and the
   certificate run (fully embedded, its store is private) ride in the
   skeleton ---------------------------------------------------------- *)

type portable = {
  cp_internal_blocks : child array array;
  cp_certs : float Emio.Run.stored; (* stride-3 flat vertices *)
  cp_root : node_ref option;
  cp_length : int;
  cp_cert_items : int;
  cp_block_size : int;
  cp_cache_blocks : int;
}

let to_portable t =
  {
    cp_internal_blocks = Emio.Store.to_blocks t.internals;
    cp_certs = Emio.Run.to_stored t.certs;
    cp_root = t.root;
    cp_length = t.length;
    cp_cert_items = t.cert_items;
    cp_block_size = Emio.Store.block_size t.leaves;
    cp_cache_blocks = Emio.Store.cache_blocks t.leaves;
  }

let of_portable ~stats ~backend p =
  let block_size = p.cp_block_size and cache_blocks = p.cp_cache_blocks in
  {
    leaves =
      Emio.Store.of_backend ~stats ~block_size ~cache_blocks ~codec:item_codec
        backend;
    internals =
      Emio.Store.of_blocks ~stats ~block_size ~cache_blocks
        p.cp_internal_blocks;
    certs = Emio.Run.of_stored ~stats p.cp_certs;
    root = p.cp_root;
    length = p.cp_length;
    cert_items = p.cp_cert_items;
    visited = 0;
  }

let map_certificates f p =
  let stats = Emio.Io_stats.create () in
  let run = Emio.Run.of_stored ~stats p.cp_certs in
  let flat = Emio.Run.to_array run in
  let rewrite start len =
    let vertex i =
      let o = cert_stride * (start + i) in
      Point3.make flat.(o) flat.(o + 1) flat.(o + 2)
    in
    let out = f (Array.init len vertex) in
    if Array.length out <> len then
      invalid_arg "Cert_tree.map_certificates: length changed";
    Array.iteri
      (fun i q ->
        let o = cert_stride * (start + i) in
        flat.(o) <- Point3.x q;
        flat.(o + 1) <- Point3.y q;
        flat.(o + 2) <- Point3.z q)
      out
  in
  Array.iter
    (Array.iter (fun c ->
         rewrite c.lo_start c.lo_len;
         rewrite c.up_start c.up_len))
    p.cp_internal_blocks;
  let store = Emio.Run.store run in
  let store =
    Emio.Store.create ~stats ~block_size:(Emio.Store.block_size store)
      ~cache_blocks:(Emio.Store.cache_blocks store) ~codec:Emio.Codec.float ()
  in
  { p with cp_certs = Emio.Run.to_stored (Emio.Run.of_array store flat) }

let portable_codec =
  let open Emio.Codec in
  map
    ~decode:(fun ((ib, certs), (root, len, ci), (bs, cb)) ->
      { cp_internal_blocks = ib; cp_certs = certs; cp_root = root;
        cp_length = len; cp_cert_items = ci; cp_block_size = bs;
        cp_cache_blocks = cb })
    ~encode:(fun p ->
      ( (p.cp_internal_blocks, p.cp_certs),
        (p.cp_root, p.cp_length, p.cp_cert_items),
        (p.cp_block_size, p.cp_cache_blocks) ))
    (triple
       (pair
          (array (array child_codec))
          (Emio.Run.stored_codec Emio.Codec.float))
       (triple (option node_ref_codec) int int)
       (pair int int))

(* v2: the certificate run went flat (stride-3 floats in 3B-float
   blocks) — the stored blocks changed element type, so v1 skeletons
   are rejected with a clear version error rather than misdecoded. *)
let snapshot =
  Diskstore.Snapshot.format ~kind:"lcsearch.cert" ~version:2
    ~codec:portable_codec
    ~payload:(fun t -> (block_size t, Emio.Store.export_bytes t.leaves))
    ~to_skeleton:to_portable ~of_skeleton:of_portable

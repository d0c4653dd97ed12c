open Geom

type t = {
  directory : (int * int) Emio.Run.t; (* cell -> (start, len) *)
  buckets : (Point2.t * int) Emio.Run.t;
      (* (point, build-time index), bucket by bucket *)
  bbox : Rect.t;
  side : int;
  dir_block : int;
  length : int;
}

let side t = t.side
let block_size t = Emio.Store.block_size (Emio.Run.store t.buckets)

let space_blocks t =
  Emio.Run.block_count t.directory + Emio.Run.block_count t.buckets

let build ~stats ~block_size ?(cache_blocks = 0) points =
  let n = Array.length points in
  let bbox =
    if n = 0 then { Rect.x0 = 0.; y0 = 0.; x1 = 1.; y1 = 1. }
    else Rect.of_points points
  in
  (* pad so boundary points fall strictly inside *)
  let pad v = if v = 0. then 1e-9 else Float.abs v *. 1e-9 in
  let bbox =
    {
      Rect.x0 = bbox.Rect.x0 -. pad bbox.Rect.x0;
      y0 = bbox.Rect.y0 -. pad bbox.Rect.y0;
      x1 = bbox.Rect.x1 +. pad bbox.Rect.x1;
      y1 = bbox.Rect.y1 +. pad bbox.Rect.y1;
    }
  in
  let n_blocks = max 1 ((n + block_size - 1) / block_size) in
  let side = max 1 (int_of_float (ceil (sqrt (float_of_int n_blocks)))) in
  let cells = Array.make (side * side) [] in
  let cell_of p =
    let fx =
      (Point2.x p -. bbox.Rect.x0) /. (bbox.Rect.x1 -. bbox.Rect.x0)
    and fy =
      (Point2.y p -. bbox.Rect.y0) /. (bbox.Rect.y1 -. bbox.Rect.y0)
    in
    let cx = min (side - 1) (max 0 (int_of_float (fx *. float_of_int side)))
    and cy = min (side - 1) (max 0 (int_of_float (fy *. float_of_int side))) in
    (cy * side) + cx
  in
  Array.iteri
    (fun i p -> cells.(cell_of p) <- (p, i) :: cells.(cell_of p))
    points;
  let dir = Array.make (side * side) (0, 0) in
  let flat = ref [] in
  let pos = ref 0 in
  Array.iteri
    (fun c ps ->
      let ps = List.rev ps in
      dir.(c) <- (!pos, List.length ps);
      List.iter
        (fun p ->
          flat := p :: !flat;
          incr pos)
        ps)
    cells;
  let store_dir = Emio.Store.create ~stats ~block_size ~cache_blocks () in
  let store_b =
    Emio.Store.create ~stats ~block_size ~cache_blocks
      ~codec:Point2.indexed_codec ()
  in
  {
    directory = Emio.Run.of_array store_dir dir;
    buckets = Emio.Run.of_array store_b (Array.of_list (List.rev !flat));
    bbox;
    side;
    dir_block = block_size;
    length = n;
  }

let cell_rect t c =
  let cx = c mod t.side and cy = c / t.side in
  let w = (t.bbox.Rect.x1 -. t.bbox.Rect.x0) /. float_of_int t.side
  and h = (t.bbox.Rect.y1 -. t.bbox.Rect.y0) /. float_of_int t.side in
  {
    Rect.x0 = t.bbox.Rect.x0 +. (float_of_int cx *. w);
    y0 = t.bbox.Rect.y0 +. (float_of_int cy *. h);
    x1 = t.bbox.Rect.x0 +. (float_of_int (cx + 1) *. w);
    y1 = t.bbox.Rect.y0 +. (float_of_int (cy + 1) *. h);
  }

let read_bucket t c f =
  let start, len =
    (Emio.Run.read_block t.directory (c / t.dir_block)).(c mod t.dir_block)
  in
  (* in-place range scan: one read per bucket block, no per-bucket
     copy *)
  if len > 0 then Emio.Run.iter_range f t.buckets ~pos:start ~len

(* The shared traversal: list, id-sink and counting callers run the
   identical (I/O-identical) directory-and-bucket scan through this
   visitor; [f] sees each answering (point, id) item. *)
let query_visit t ~classify ~keep f =
  (* one filtering closure for the whole sweep, not one per crossing
     cell *)
  let filtered ((p, _) as item) = if keep p then f item in
  for c = 0 to (t.side * t.side) - 1 do
    match classify (cell_rect t c) with
    | Rect.Outside -> ()
    | Rect.Inside -> read_bucket t c f
    | Rect.Crossing -> read_bucket t c filtered
  done

let query_fold t ~classify ~keep =
  let acc = ref [] in
  query_visit t ~classify ~keep (fun (p, _) -> acc := p :: !acc);
  !acc

let halfplane_classify ~slope ~icept r = Rect.classify r ~slope ~icept

let halfplane_keep ~slope ~icept p =
  p.Point2.y <= (slope *. p.Point2.x) +. icept +. Eps.eps

let halfplane_visit t ~slope ~icept f =
  query_visit t
    ~classify:(halfplane_classify ~slope ~icept)
    ~keep:(halfplane_keep ~slope ~icept) f

let query_ids_into t ~slope ~icept r =
  halfplane_visit t ~slope ~icept (fun (_, id) -> Emio.Reporter.add r id)

let query_halfplane t ~slope ~icept =
  query_fold t
    ~classify:(halfplane_classify ~slope ~icept)
    ~keep:(halfplane_keep ~slope ~icept)

let query_count t ~slope ~icept =
  let n = ref 0 in
  halfplane_visit t ~slope ~icept (fun _ -> incr n);
  !n

let query_window t w =
  query_fold t
    ~classify:(fun r ->
      if w.Rect.x0 <= r.Rect.x0 && r.Rect.x1 <= w.Rect.x1
         && w.Rect.y0 <= r.Rect.y0 && r.Rect.y1 <= w.Rect.y1
      then Rect.Inside
      else if Rect.intersects r w then Rect.Crossing
      else Rect.Outside)
    ~keep:(fun p -> Rect.contains w p)

(* -- persistence: the bucket store is the payload; the directory run
   (O(n/B) cells, private store) is embedded in the skeleton --------- *)

type portable = {
  gp_directory : (int * int) Emio.Run.stored;
  gp_buckets : int array * int;
  gp_bbox : Rect.t;
  gp_side : int;
  gp_dir_block : int;
  gp_length : int;
  gp_block_size : int;
  gp_cache_blocks : int;
}

let to_portable t =
  let bstore = Emio.Run.store t.buckets in
  {
    gp_directory = Emio.Run.to_stored t.directory;
    gp_buckets = Emio.Run.to_portable t.buckets;
    gp_bbox = t.bbox;
    gp_side = t.side;
    gp_dir_block = t.dir_block;
    gp_length = t.length;
    gp_block_size = Emio.Store.block_size bstore;
    gp_cache_blocks = Emio.Store.cache_blocks bstore;
  }

let of_portable ~stats ~backend p =
  let bstore =
    Emio.Store.of_backend ~stats ~block_size:p.gp_block_size
      ~cache_blocks:p.gp_cache_blocks ~codec:Point2.indexed_codec backend
  in
  {
    directory = Emio.Run.of_stored ~stats p.gp_directory;
    buckets = Emio.Run.of_portable bstore p.gp_buckets;
    bbox = p.gp_bbox;
    side = p.gp_side;
    dir_block = p.gp_dir_block;
    length = p.gp_length;
  }

let portable_codec =
  let open Emio.Codec in
  map
    ~decode:(fun ((dir, bkts, bbox), (side, db), (len, bs, cb)) ->
      { gp_directory = dir; gp_buckets = bkts; gp_bbox = bbox;
        gp_side = side; gp_dir_block = db; gp_length = len;
        gp_block_size = bs; gp_cache_blocks = cb })
    ~encode:(fun p ->
      ( (p.gp_directory, p.gp_buckets, p.gp_bbox),
        (p.gp_side, p.gp_dir_block),
        (p.gp_length, p.gp_block_size, p.gp_cache_blocks) ))
    (triple
       (triple
          (Emio.Run.stored_codec (pair int int))
          Emio.Run.portable_codec Rect.codec)
       (pair int int)
       (triple int int int))

let snapshot =
  Diskstore.Snapshot.format ~kind:"lcsearch.gridfile" ~version:2
    ~codec:portable_codec
    ~payload:(fun t ->
      (block_size t, Emio.Store.export_bytes (Emio.Run.store t.buckets)))
    ~to_skeleton:to_portable ~of_skeleton:of_portable

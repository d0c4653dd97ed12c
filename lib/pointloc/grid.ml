open Geom

type 'a t = {
  directory : (int * int) Emio.Run.t; (* cell -> (start, len) *)
  buckets : (Point2.t array * 'a) Emio.Run.t; (* concatenated cell lists *)
  clip : float * float * float * float;
  side : int;
  dir_block : int; (* directory slots per block *)
}

let space_blocks t =
  Emio.Run.block_count t.directory + Emio.Run.block_count t.buckets

let cell_of t x y =
  let xmin, ymin, xmax, ymax = t.clip in
  if x < xmin || x > xmax || y < ymin || y > ymax then None
  else begin
    let fx = (x -. xmin) /. (xmax -. xmin) *. float_of_int t.side in
    let fy = (y -. ymin) /. (ymax -. ymin) *. float_of_int t.side in
    let cx = min (t.side - 1) (max 0 (int_of_float fx)) in
    let cy = min (t.side - 1) (max 0 (int_of_float fy)) in
    Some ((cy * t.side) + cx)
  end

let create ~stats ~block_size ?(cache_blocks = 0) ~clip ~items () =
  let xmin, ymin, xmax, ymax = clip in
  if xmin >= xmax || ymin >= ymax then invalid_arg "Grid.create: empty clip";
  let n = Array.length items in
  let side = max 1 (int_of_float (ceil (sqrt (float_of_int (max 1 n))))) in
  let cells = Array.make (side * side) [] in
  let clampi v = min (side - 1) (max 0 v) in
  let cell_x x =
    clampi (int_of_float ((x -. xmin) /. (xmax -. xmin) *. float_of_int side))
  in
  let cell_y y =
    clampi (int_of_float ((y -. ymin) /. (ymax -. ymin) *. float_of_int side))
  in
  (* exact rasterization: a cell stores a triangle only if they really
     overlap (bbox pass + edge separation), so sliver triangles do not
     inflate the buckets *)
  let cell_w = (xmax -. xmin) /. float_of_int side
  and cell_h = (ymax -. ymin) /. float_of_int side in
  let overlaps corners cx cy =
    let rx0 = xmin +. (float_of_int cx *. cell_w)
    and ry0 = ymin +. (float_of_int cy *. cell_h) in
    let rx1 = rx0 +. cell_w and ry1 = ry0 +. cell_h in
    (* separating-axis test on the three triangle edges: the rect and
       triangle overlap iff no edge has all four rect corners strictly
       on its outer side (axis separations are excluded by the caller's
       bbox loop) *)
    let separated = ref false in
    for e = 0 to 2 do
      let p = corners.(e) and q = corners.((e + 1) mod 3) in
      let o = corners.((e + 2) mod 3) in
      let ex = Point2.x q -. Point2.x p and ey = Point2.y q -. Point2.y p in
      let side_of x y =
        (ex *. (y -. Point2.y p)) -. (ey *. (x -. Point2.x p))
      in
      let so = side_of (Point2.x o) (Point2.y o) in
      let sign = if so >= 0. then 1. else -1. in
      if
        sign *. side_of rx0 ry0 < 0.
        && sign *. side_of rx1 ry0 < 0.
        && sign *. side_of rx0 ry1 < 0.
        && sign *. side_of rx1 ry1 < 0.
      then separated := true
    done;
    not !separated
  in
  Array.iteri
    (fun i (corners, _) ->
      let xs = Array.map Point2.x corners and ys = Array.map Point2.y corners in
      let bx0 = Array.fold_left min infinity xs
      and bx1 = Array.fold_left max neg_infinity xs
      and by0 = Array.fold_left min infinity ys
      and by1 = Array.fold_left max neg_infinity ys in
      for cy = cell_y by0 to cell_y by1 do
        for cx = cell_x bx0 to cell_x bx1 do
          if overlaps corners cx cy then begin
            let c = (cy * side) + cx in
            cells.(c) <- i :: cells.(c)
          end
        done
      done)
    items;
  let store_dir = Emio.Store.create ~stats ~block_size ~cache_blocks () in
  let store_buckets = Emio.Store.create ~stats ~block_size ~cache_blocks () in
  let flat = ref [] in
  let dir = Array.make (side * side) (0, 0) in
  let pos = ref 0 in
  Array.iteri
    (fun c ids ->
      let ids = List.rev ids in
      dir.(c) <- (!pos, List.length ids);
      List.iter
        (fun i ->
          flat := items.(i) :: !flat;
          incr pos)
        ids)
    cells;
  {
    directory = Emio.Run.of_array store_dir dir;
    buckets = Emio.Run.of_array store_buckets (Array.of_list (List.rev !flat));
    clip;
    side;
    dir_block = block_size;
  }

(* -- persistence -------------------------------------------------- *)

type 'a portable = {
  p_directory : (int * int) Emio.Run.stored;
  p_buckets : (Point2.t array * 'a) Emio.Run.stored;
  p_clip : float * float * float * float;
  p_side : int;
  p_dir_block : int;
}

let to_portable t =
  {
    p_directory = Emio.Run.to_stored t.directory;
    p_buckets = Emio.Run.to_stored t.buckets;
    p_clip = t.clip;
    p_side = t.side;
    p_dir_block = t.dir_block;
  }

let of_portable ~stats p =
  {
    directory = Emio.Run.of_stored ~stats p.p_directory;
    buckets = Emio.Run.of_stored ~stats p.p_buckets;
    clip = p.p_clip;
    side = p.p_side;
    dir_block = p.p_dir_block;
  }

let portable_codec payload =
  let open Emio.Codec in
  let bucket = pair (array Point2.codec) payload in
  map
    ~decode:(fun ((d, b), clip, (side, dir_block)) ->
      { p_directory = d; p_buckets = b; p_clip = clip; p_side = side;
        p_dir_block = dir_block })
    ~encode:(fun p ->
      ((p.p_directory, p.p_buckets), p.p_clip, (p.p_side, p.p_dir_block)))
    (triple
       (pair
          (Emio.Run.stored_codec (pair int int))
          (Emio.Run.stored_codec bucket))
       (quad float float float float)
       (pair int int))

let locate t x y =
  match cell_of t x y with
  | None -> None
  | Some c ->
      let start, len =
        (Emio.Run.read_block t.directory (c / t.dir_block)).(c mod t.dir_block)
      in
      if len = 0 then None
      else begin
        let p = Point2.make x y in
        let found = ref None in
        (* explicit loop over the whole bucket range: every block of
           the range is read whether or not a triangle already
           matched, so the charges stay identical to the old
           materializing scan — but matching stops at the first hit
           and no closure is invoked per item *)
        let b = Emio.Store.block_size (Emio.Run.store t.buckets) in
        let first = start / b and last = (start + len - 1) / b in
        for blk = first to last do
          let block = Emio.Run.read_block t.buckets blk in
          (match !found with
          | Some _ -> ()
          | None ->
              let block_lo = blk * b in
              let lo = max 0 (start - block_lo) in
              let hi = min (Array.length block) (start + len - block_lo) in
              let i = ref lo in
              let scanning = ref true in
              while !scanning && !i < hi do
                let corners, payload = block.(!i) in
                if Point2.in_triangle corners.(0) corners.(1) corners.(2) p
                then begin
                  found := Some payload;
                  scanning := false
                end;
                incr i
              done)
        done;
        !found
      end

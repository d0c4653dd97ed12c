open Geom

(* A stored segment: precomputed slope form for O(1) height-at-x. *)
type 'a seg = {
  x0 : float;
  x1 : float;
  slope : float;
  icept : float;
  payload : 'a;
}

let height s x = (s.slope *. x) +. s.icept

(* One tree node: canonical segments span the node's x-interval and are
   therefore totally ordered vertically; they are stored bottom-to-top
   in [run], so a per-node search binary-searches the block heads. *)
type 'a node = {
  lo : float;
  hi : float;
  run : 'a seg Emio.Run.t;
  mid : float;
  left : 'a node option;
  right : 'a node option;
}

type 'a t = {
  root : 'a node option;
  block_size : int;
  n_segments : int;
}

let rec node_space n =
  Emio.Run.block_count n.run
  + (match n.left with Some l -> node_space l | None -> 0)
  + (match n.right with Some r -> node_space r | None -> 0)

let space_blocks t = match t.root with None -> 0 | Some r -> node_space r

let slope_limit = 1e7

let create ~stats ~block_size ?(cache_blocks = 0) ~segments () =
  let store = Emio.Store.create ~stats ~block_size ~cache_blocks () in
  let segs =
    Array.map
      (fun (a, b, payload) ->
        let a, b = if Point2.x a <= Point2.x b then (a, b) else (b, a) in
        let dx = Point2.x b -. Point2.x a in
        if Float.abs dx *. slope_limit <= Float.abs (Point2.y b -. Point2.y a)
        then invalid_arg "Seg_tree.create: near-vertical segment";
        let slope = (Point2.y b -. Point2.y a) /. dx in
        {
          x0 = Point2.x a;
          x1 = Point2.x b;
          slope;
          icept = Point2.y a -. (slope *. Point2.x a);
          payload;
        })
      segments
  in
  (* elementary intervals from the sorted distinct endpoint abscissas *)
  let xs =
    Array.concat [ Array.map (fun s -> s.x0) segs; Array.map (fun s -> s.x1) segs ]
  in
  Array.sort Float.compare xs;
  let coords =
    let out = ref [] in
    Array.iter
      (fun x -> match !out with y :: _ when y = x -> () | _ -> out := x :: !out)
      xs;
    Array.of_list (List.rev !out)
  in
  let m = Array.length coords in
  if m < 2 then { root = None; block_size; n_segments = Array.length segs }
  else begin
    (* recursive build over coordinate index range [i, j] (interval
       [coords.(i), coords.(j)]), with the candidate segments that span
       at least part of it *)
    let rec build i j (candidates : 'a seg list) =
      if i >= j then None
      else begin
        let lo = coords.(i) and hi = coords.(j) in
        (* canonical here: spans [lo, hi]; push the rest down *)
        let here, rest =
          List.partition (fun s -> s.x0 <= lo && s.x1 >= hi) candidates
        in
        let mid_idx = (i + j) / 2 in
        let xmid = (lo +. hi) /. 2. in
        let here = Array.of_list here in
        Array.sort (fun a b -> Float.compare (height a xmid) (height b xmid)) here;
        let left, right =
          if i + 1 >= j then (None, None)
          else begin
            let lcoord = coords.(mid_idx) in
            let go_left = List.filter (fun s -> s.x0 < lcoord) rest in
            let go_right = List.filter (fun s -> s.x1 > lcoord) rest in
            (build i mid_idx go_left, build mid_idx j go_right)
          end
        in
        let run = Emio.Run.of_array store here in
        Some { lo; hi; run; mid = xmid; left; right }
      end
    in
    let root = build 0 (m - 1) (Array.to_list segs) in
    { root; block_size; n_segments = Array.length segs }
  end

(* Single-field all-float record: mutating it updates the unboxed
   float in place, where a [float ref] would box a float per
   assignment along the root-to-leaf search. *)
type fbox = { mutable fv : float }

(* Scan one candidate block, improving (bh, bp) with the lowest
   segment at or above y - eps.  Strict [<] keeps the earlier
   candidate on exact ties — the same tie-break the old per-node
   fold followed by the strict cross-node comparison produced. *)
let scan_block node x y (bh : fbox) bp b nb =
  if b >= 0 && b < nb then begin
    let block = Emio.Run.read_block node.run b in
    for i = 0 to Array.length block - 1 do
      let s = block.(i) in
      let h = height s x in
      if h >= y -. Eps.eps && h < bh.fv then begin
        bh.fv <- h;
        bp := Some s.payload
      end
    done
  end

(* Lowest canonical segment of [node] at or above y at abscissa x,
   merged into the running best (bh, bp).  Canonical segments span the
   whole node interval and never properly cross, so their vertical
   order is the same at every abscissa of the interval; binary search
   over the block heads costs O(log) block reads per node. *)
let node_candidate node x y (bh : fbox) bp =
  let nb = Emio.Run.block_count node.run in
  if nb > 0 then begin
    let lo = ref 0 and hi = ref nb in
    (* find first block whose head is >= y; the answer segment is in
       that block or the one before *)
    while !lo < !hi do
      let midb = (!lo + !hi) / 2 in
      let hh = height (Emio.Run.read_block node.run midb).(0) x in
      if hh >= y -. Eps.eps then hi := midb else lo := midb + 1
    done;
    scan_block node x y bh bp (!lo - 1) nb;
    scan_block node x y bh bp !lo nb
  end

(* -- persistence -------------------------------------------------- *)

(* The portable tree: every node's run becomes (block ids, length)
   against the one store all runs share, whose blocks ride alongside. *)
type node_p = {
  np_lo : float;
  np_hi : float;
  np_run : int array * int;
  np_mid : float;
  np_left : node_p option;
  np_right : node_p option;
}

type 'a portable = {
  sp_blocks : 'a seg array array;
  sp_cache : int;
  sp_root : node_p option;
  sp_block_size : int;
  sp_n_segments : int;
}

let to_portable t =
  let rec node_p n =
    {
      np_lo = n.lo;
      np_hi = n.hi;
      np_run = Emio.Run.to_portable n.run;
      np_mid = n.mid;
      np_left = Option.map node_p n.left;
      np_right = Option.map node_p n.right;
    }
  in
  let blocks, cache =
    match t.root with
    | None -> ([||], 0)
    | Some n ->
        let store = Emio.Run.store n.run in
        (Emio.Store.to_blocks store, Emio.Store.cache_blocks store)
  in
  {
    sp_blocks = blocks;
    sp_cache = cache;
    sp_root = Option.map node_p t.root;
    sp_block_size = t.block_size;
    sp_n_segments = t.n_segments;
  }

let of_portable ~stats p =
  let store =
    Emio.Store.of_blocks ~stats ~block_size:p.sp_block_size
      ~cache_blocks:p.sp_cache p.sp_blocks
  in
  let rec node np =
    {
      lo = np.np_lo;
      hi = np.np_hi;
      run = Emio.Run.of_portable store np.np_run;
      mid = np.np_mid;
      left = Option.map node np.np_left;
      right = Option.map node np.np_right;
    }
  in
  {
    root = Option.map node p.sp_root;
    block_size = p.sp_block_size;
    n_segments = p.sp_n_segments;
  }

let portable_codec payload =
  let open Emio.Codec in
  let seg_codec =
    map
      ~decode:(fun ((x0, x1, slope, icept), payload) ->
        { x0; x1; slope; icept; payload })
      ~encode:(fun s -> ((s.x0, s.x1, s.slope, s.icept), s.payload))
      (pair (quad float float float float) payload)
  in
  let node_codec =
    fix (fun self ->
        map
          ~decode:(fun ((np_lo, np_hi, np_mid), np_run, (np_left, np_right)) ->
            { np_lo; np_hi; np_run; np_mid; np_left; np_right })
          ~encode:(fun n ->
            ((n.np_lo, n.np_hi, n.np_mid), n.np_run, (n.np_left, n.np_right)))
          (triple
             (triple float float float)
             Emio.Run.portable_codec
             (pair (option self) (option self))))
  in
  map
    ~decode:(fun ((blocks, cache), root, (bs, n)) ->
      { sp_blocks = blocks; sp_cache = cache; sp_root = root;
        sp_block_size = bs; sp_n_segments = n })
    ~encode:(fun p ->
      ((p.sp_blocks, p.sp_cache), p.sp_root, (p.sp_block_size, p.sp_n_segments)))
    (triple
       (pair (array (array seg_codec)) int)
       (option node_codec)
       (pair int int))

let locate_above t x y =
  let bh = { fv = infinity } in
  let bp = ref None in
  let rec go = function
    | None -> ()
    | Some n ->
        if x < n.lo -. Eps.eps || x > n.hi +. Eps.eps then ()
        else begin
          node_candidate n x y bh bp;
          let mid_coord =
            match (n.left, n.right) with
            | Some l, _ -> l.hi
            | None, Some r -> r.lo
            | None, None -> n.mid
          in
          if n.left = None && n.right = None then ()
          else if x < mid_coord then go n.left
          else go n.right
        end
  in
  go t.root;
  !bp

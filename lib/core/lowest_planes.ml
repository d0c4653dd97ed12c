open Geom

(* Payload stored with each envelope triangle: the plane forming the
   envelope there (inline coefficients, so no extra I/O to evaluate the
   envelope height) and the position of its conflict list K(Δ) in the
   layer's conflict run. *)
type payload = {
  plane_id : int;
  pa : float;
  pb : float;
  pc : float;
  kstart : int;
  klen : int;
}

(* Conflict items carry inline coefficients too: scanning K(Δ) costs
   exactly ⌈|K|/B⌉ reads.  Items are stored FLAT: a conflict run is a
   [float Emio.Run.t] holding four floats per item — id (exact below
   2^53), a, b, c — in stride-4 slots, and its store's block size is
   4B floats so each block holds exactly B items and every block
   boundary (hence every I/O charge) is identical to the boxed
   one-record-per-item layout this replaces.  A decoded block is then
   one unboxed float array: the hot scan reads coefficients
   sequentially instead of chasing a pointer per item, which is where
   most of the 3-D query time went. *)
let stride = 4

type locator =
  | Grid of payload Pointloc.Grid.t
  | Segtree of payload Pointloc.Seg_tree.t

type layer = {
  sample_size : int;
  locator : locator;
  conflicts : float Emio.Run.t; (* stride-4 flat items *)
}

type copy = { layers : layer option array (* index i: sample size 2^(i+2) *) }

type t = {
  n : int;
  beta : int; (* B log_B n: the smallest k the layers are tuned for *)
  copies : copy array;
  all_planes : float Emio.Run.t; (* exact fallback, stride-4 flat *)
  clip : float * float * float * float;
  mutable fallback_count : int;
}

let fallbacks t = t.fallback_count

let layer_count t =
  if Array.length t.copies = 0 then 0
  else Array.length t.copies.(0).layers

let missing_layers t =
  Array.fold_left
    (fun acc c ->
      Array.fold_left
        (fun acc l -> if Option.is_none l then acc + 1 else acc)
        acc c.layers)
    0 t.copies

let space_blocks t =
  Emio.Run.block_count t.all_planes
  + Array.fold_left
      (fun acc c ->
        Array.fold_left
          (fun acc -> function
            | None -> acc
            | Some l ->
                acc
                + (match l.locator with
                  | Grid g -> Pointloc.Grid.space_blocks g
                  | Segtree st -> Pointloc.Seg_tree.space_blocks st)
                + Emio.Run.block_count l.conflicts)
          acc c.layers)
      0 t.copies

(* The planes' coefficients a, b, c, three floats per plane id: items
   copy their floats from here rather than from the boxed planes. *)
let coefficients planes =
  let coef = Array.make (3 * Array.length planes) 0. in
  Array.iteri
    (fun id p ->
      coef.(3 * id) <- Plane3.a p;
      coef.((3 * id) + 1) <- Plane3.b p;
      coef.((3 * id) + 2) <- Plane3.c p)
    planes;
  coef

(* A run of stride-4 items written in order straight into the blocks
   that [Emio.Run.of_blocks] then takes, so every item is written
   once: [blk] and [off] locate the next item's first float. *)
type writer = {
  blocks : float array array;
  mutable blk : int;
  mutable off : int;
}

let writer ~block_size items =
  let b = stride * block_size and len = stride * items in
  {
    blocks =
      Array.init
        ((len + b - 1) / b)
        (fun i -> Array.make (min b (len - (i * b))) 0.);
    blk = 0;
    off = 0;
  }

(* Appends plane [id]'s item: its id, then its three coefficients. *)
let put w coef id =
  let block = w.blocks.(w.blk) and o = w.off in
  block.(o) <- float_of_int id;
  block.(o + 1) <- coef.(3 * id);
  block.(o + 2) <- coef.((3 * id) + 1);
  block.(o + 3) <- coef.((3 * id) + 2);
  if o + stride < Array.length block then w.off <- o + stride
  else begin
    w.blk <- w.blk + 1;
    w.off <- 0
  end

(* Triangle top edges, labelled with the triangle's payload: input for
   the worst-case Seg_tree locator. *)
let top_edges items =
  let out = ref [] in
  Array.iter
    (fun ((corners : Geom.Point2.t array), payload) ->
      for e = 0 to 2 do
        let a = corners.(e) and b = corners.((e + 1) mod 3) in
        let o = corners.((e + 2) mod 3) in
        let dx = Geom.Point2.x b -. Geom.Point2.x a in
        if Float.abs dx > 1e-7 then begin
          let slope = (Geom.Point2.y b -. Geom.Point2.y a) /. dx in
          let at_o =
            (slope *. (Geom.Point2.x o -. Geom.Point2.x a)) +. Geom.Point2.y a
          in
          (* keep the edge when the triangle lies strictly below it *)
          if at_o > Geom.Point2.y o +. Geom.Eps.eps then
            out := (a, b, payload) :: !out
        end
      done)
    items;
  Array.of_list !out

let build_layer ~stats ~block_size ~cache_blocks ~clip ~planes ~coef ~hull
    ~use_segtree =
  let env = Envelope3.build ~planes ~hull ~clip in
  let store =
    Emio.Store.create ~stats ~block_size:(stride * block_size)
      ~cache_blocks ~codec:Emio.Codec.float ()
  in
  (* the layer's conflict run: every triangle's K(Δ) in triangle
     order, written straight into the run's blocks *)
  let total =
    Array.fold_left
      (fun acc (tr : Envelope3.triangle) -> acc + Array.length tr.conflicts)
      0 env.Envelope3.triangles
  in
  let w = writer ~block_size total in
  let pos = ref 0 in
  let items =
    Array.map
      (fun (tr : Envelope3.triangle) ->
        let klen = Array.length tr.conflicts in
        let kstart = !pos in
        for j = 0 to klen - 1 do
          put w coef tr.conflicts.(j)
        done;
        pos := !pos + klen;
        let p = planes.(tr.plane) in
        ( tr.corners,
          {
            plane_id = tr.plane;
            pa = Plane3.a p;
            pb = Plane3.b p;
            pc = Plane3.c p;
            kstart;
            klen;
          } ))
      env.Envelope3.triangles
  in
  let conflicts = Emio.Run.of_blocks store w.blocks in
  let locator =
    if use_segtree then
      Segtree
        (Pointloc.Seg_tree.create ~stats ~block_size ~cache_blocks
           ~segments:(top_edges items) ())
    else
      Grid
        (Pointloc.Grid.create ~stats ~block_size ~cache_blocks ~clip
           ~items ())
  in
  { sample_size = Array.length env.sample; locator; conflicts }

let log_base b x = log x /. log b

let compute_beta ~block_size n_points =
  let nb = float_of_int (max 1 ((n_points + block_size - 1) / block_size)) in
  let b = float_of_int block_size in
  max 1 (int_of_float (ceil (b *. max 1. (log_base b nb))))

let payload_codec =
  Emio.Codec.map
    ~decode:(fun ((plane_id, kstart, klen), (pa, pb, pc)) ->
      { plane_id; pa; pb; pc; kstart; klen })
    ~encode:(fun p -> ((p.plane_id, p.kstart, p.klen), (p.pa, p.pb, p.pc)))
    Emio.Codec.(pair (triple int int int) (triple float float float))

let build ~stats ~block_size ?(cache_blocks = 0) ?(copies = 3)
    ?(clip = (-1000., -1000., 1000., 1000.)) ?(use_segtree = false) planes =
  if copies < 1 then invalid_arg "Lowest_planes.build: need copies >= 1";
  (let x0, y0, x1, y1 = clip in
   if not (x0 < x1 && y0 < y1) then
     invalid_arg "Lowest_planes.build: empty clip box");
  let n = Array.length planes in
  let coef = coefficients planes in
  let store =
    Emio.Store.create ~stats ~block_size:(stride * block_size) ~cache_blocks
      ~codec:Emio.Codec.float ()
  in
  let all_planes =
    let w = writer ~block_size n in
    for id = 0 to n - 1 do
      put w coef id
    done;
    Emio.Run.of_blocks store w.blocks
  in
  let beta = compute_beta ~block_size n in
  let max_i =
    (* sample sizes 4·2^i for i < max_i.  Queries clamp k to beta, so
       the largest sample ever requested is ~ N/(2 beta) (§4.1 defines
       R_i only up to i = log2(N/beta)); also never exceed n/2. *)
    let cap = min (n / 2) (max 4 (n / max 1 beta)) in
    let rec go i = if 4 * (1 lsl (i + 1)) <= cap then go (i + 1) else i + 1 in
    if cap < 4 then 0 else go 0
  in
  (* one hull insertion loop per copy: layer i is exported from the
     prefix 4·2^i of that copy's order, bit-equal to a hull built for
     that prefix alone (Hull3.map_prefixes) *)
  let dual = Array.map Plane3.dual_point planes in
  let prefixes = Array.init max_i (fun i -> 4 * (1 lsl i)) in
  let copies_arr =
    Array.init copies (fun c ->
        (* a fixed seed (the leading 0): every copy's order, and so
           the snapshot bytes, is a function of c and n alone *)
        let order =
          Hull3.random_order (Random.State.make [| 0; c; n; 0x3d |]) n
        in
        {
          layers =
            Hull3.map_prefixes ~points:dual ~order ~prefixes
              (Option.map (fun hull ->
                   build_layer ~stats ~block_size ~cache_blocks ~clip ~planes
                     ~coef ~hull ~use_segtree));
        })
  in
  { n; beta; copies = copies_arr; all_planes; clip; fallback_count = 0 }

(* -- query scratch ------------------------------------------------- *)

(* Per-domain candidate buffer: the single charged pass over a conflict
   list (or the full-scan fallback) lands plane ids and heights in
   these parallel arrays.  Parallel int/float arrays rather than an
   (id, height) tuple array because float array elements stay unboxed —
   a tuple would cost five words per candidate, which at N = 8192 was
   the bulk of the 39k words/query the old pipeline allocated.
   Domain-local ([Domain.DLS]) so parallel batches never share or race
   on a buffer. *)
type scratch = {
  mutable sids : int array;
  mutable shts : float array;
  mutable slen : int;
}

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { sids = Array.make 256 0; shts = Array.make 256 0.; slen = 0 })

(* Growth never blits: the buffer is refilled from scratch on every
   select, so stale contents are dead. *)
let scratch_reserve sc n =
  if Array.length sc.sids < n then begin
    let cap = ref (2 * Array.length sc.sids) in
    while !cap < n do
      cap := 2 * !cap
    done;
    sc.sids <- Array.make !cap 0;
    sc.shts <- Array.make !cap 0.
  end

(* Exact fallback: scan every plane, buffering (id, height) as we go.
   Explicit block loop rather than [iter_blocks] so no closure is built
   on the hot path; charges are identical (one read per block). *)
let load_all t sc ~x ~y ~ids =
  t.fallback_count <- t.fallback_count + 1;
  scratch_reserve sc t.n;
  sc.slen <- 0;
  let nb = Emio.Run.block_count t.all_planes in
  (* the materializing scan this replaces ([Run.to_array]) sampled
     block 0 for an element witness before iterating, charging that
     block twice; the golden Table-1 rows pin those counts, so the
     fallback keeps the extra charge *)
  if nb > 0 then ignore (Emio.Run.read_block t.all_planes 0);
  for b = 0 to nb - 1 do
    let block = Emio.Run.read_block t.all_planes b in
    let nitems = Array.length block / stride in
    let base = sc.slen in
    if ids then
      for i = 0 to nitems - 1 do
        let f = stride * i in
        sc.sids.(base + i) <- int_of_float block.(f);
        sc.shts.(base + i) <-
          (block.(f + 1) *. x) +. (block.(f + 2) *. y) +. block.(f + 3)
      done
    else
      for i = 0 to nitems - 1 do
        let f = stride * i in
        sc.shts.(base + i) <-
          (block.(f + 1) *. x) +. (block.(f + 2) *. y) +. block.(f + 3)
      done;
    sc.slen <- base + nitems
  done

(* Buffer items [pos, pos+len) of a conflict run, evaluating each
   plane at (x, y) during the one charged scan (one read per touched
   block, no intermediate copy).  The count of heights strictly below
   [cutoff] (the envelope height, for §4.1's below-test) accumulates
   in the same pass so the caller never walks the scratch a second
   time, and [ids = false] skips the id stores for count-only
   retrievals that will never read them. *)
let load_range sc run ~pos ~len ~x ~y ~ids ~cutoff =
  scratch_reserve sc len;
  sc.slen <- 0;
  let below = ref 0 in
  if len > 0 then begin
    (* [pos]/[len] count items; the flat run counts floats.  The store
       block size is stride*B, so item i's four slots live in block
       i/B — the same block index the boxed layout charged. *)
    let fb = Emio.Store.block_size (Emio.Run.store run) in
    let b = fb / stride in
    let first = pos / b and last = (pos + len - 1) / b in
    let out = ref 0 in
    for blk = first to last do
      let block = Emio.Run.read_block run blk in
      let block_lo = blk * b in
      let lo = max 0 (pos - block_lo) in
      let hi = min (Array.length block / stride) (pos + len - block_lo) in
      (* within one block the output slot is [o + i]: no per-item
         counter bump *)
      let o = !out - lo in
      (* the loop bounds prove every access in range: stride*hi <=
         Array.length block (hi is clamped to it) and scratch_reserve
         sized sids/shts for at least [len] >= o + hi slots, so the
         unchecked accesses below are safe — this loop is the single
         hottest scan in the repo and the bounds checks were ~a third
         of its time *)
      if ids then
        for i = lo to hi - 1 do
          let f = stride * i in
          Array.unsafe_set sc.sids (o + i)
            (int_of_float (Array.unsafe_get block f));
          let h =
            (Array.unsafe_get block (f + 1) *. x)
            +. (Array.unsafe_get block (f + 2) *. y)
            +. Array.unsafe_get block (f + 3)
          in
          Array.unsafe_set sc.shts (o + i) h;
          if h < cutoff then incr below
        done
      else
        for i = lo to hi - 1 do
          let f = stride * i in
          let h =
            (Array.unsafe_get block (f + 1) *. x)
            +. (Array.unsafe_get block (f + 2) *. y)
            +. Array.unsafe_get block (f + 3)
          in
          Array.unsafe_set sc.shts (o + i) h;
          if h < cutoff then incr below
        done;
      out := !out + (hi - lo)
    done;
    sc.slen <- !out
  end;
  !below

(* One invocation of TryLowestPlanes (§4.1) against a specific layer.
   On [Success] the scratch holds the conflict list K(Δ). *)
type try_result =
  | Success
  | Fail_threshold  (** |K| exceeded k/δ² — a smaller δ may help *)
  | Fail_below  (** fewer than k planes of K below the envelope: only a
                    smaller sample (shallower envelope) can help *)

let locate layer x y =
  match layer.locator with
  | Grid g -> Pointloc.Grid.locate g x y
  | Segtree st -> Pointloc.Seg_tree.locate_above st x y

let try_lowest layer sc ~x ~y ~k ~delta ~ids =
  match locate layer x y with
  | None -> Fail_threshold (* locator miss: treat as a generic failure *)
  | Some payload ->
      let threshold = int_of_float (float_of_int k /. (delta *. delta)) in
      if payload.klen > threshold then Fail_threshold
      else begin
        let envelope_z = (payload.pa *. x) +. (payload.pb *. y) +. payload.pc in
        let below =
          load_range sc layer.conflicts ~pos:payload.kstart ~len:payload.klen
            ~x ~y ~ids ~cutoff:envelope_z
        in
        if below < k then Fail_below else Success
      end

let inside_clip t x y =
  let xmin, ymin, xmax, ymax = t.clip in
  x > xmin && x < xmax && y > ymin && y < ymax

(* Run §4.1's retry protocol, leaving the candidate set in [sc] —
   either a successful conflict list or the full plane set — and
   returning the retrieval count min(k, n).  The layer choice, copy
   order, and fallback conditions mirror the legacy array path
   exactly, so the blocks read (and hence every I/O charge) are
   bit-identical to it. *)
let select t sc ~x ~y ~k ~ids =
  let k = min k t.n in
  (* §4.1's layers are tuned for k >= beta; a smaller request is
     answered by retrieving the beta lowest and truncating, which
     stays within O(log_B n + k/B) because beta/B = O(log_B n). *)
  let k_eff = min t.n (max k t.beta) in
  let n_layers = layer_count t in
  (* for k = Ω(N) the full scan is already within the O(k/B) output
     term — and the retry protocol could not beat it anyway *)
  if
    n_layers = 0
    || (not (inside_clip t x y))
    || k_eff >= t.n
    || 4 * k_eff >= t.n
  then begin
    load_all t sc ~x ~y ~ids;
    k
  end
  else begin
    (* delta = 2^-attempt; layer index for sample size ~ delta n / k *)
    let rec attempt a =
      let delta = Float.pow 2. (-.float_of_int a) in
      if delta *. float_of_int t.n < 1. then begin
        load_all t sc ~x ~y ~ids;
        k
      end
      else begin
        let target = delta *. float_of_int t.n /. float_of_int k_eff in
        let rho =
          (* sample size 2^(i+2): i = round(log2 target) - 2 *)
          let i = int_of_float (Float.round (log target /. log 2.)) - 2 in
          max 0 (min (n_layers - 1) i)
        in
        let success = ref false in
        let all_below_failures = ref true in
        let nc = Array.length t.copies in
        let ci = ref 0 in
        while (not !success) && !ci < nc do
          (match t.copies.(!ci).layers.(rho) with
          | None -> all_below_failures := false
          | Some layer -> (
              match try_lowest layer sc ~x ~y ~k:k_eff ~delta ~ids with
              | Success -> success := true
              | Fail_below -> ()
              | Fail_threshold -> all_below_failures := false));
          incr ci
        done;
        if !success then k
        else if
          (* at the smallest sample, "fewer than k of K below the
             envelope" cannot improve with smaller delta: scan *)
          rho = 0 && !all_below_failures
        then begin
          load_all t sc ~x ~y ~ids;
          k
        end
        else attempt (a + 1)
      end
    in
    attempt 1
  end

(* Materializing compat path (knn, oracles): sort the candidate set by
   height and keep the k lowest.  The candidates arrive in run order —
   the same order the old pipeline sorted — so ties break
   identically. *)
let k_lowest t ~x ~y ~k =
  if k <= 0 then []
  else begin
    let k = min k t.n in
    let sc = Domain.DLS.get scratch_key in
    let k_ret = select t sc ~x ~y ~k ~ids:true in
    let withh = Array.init sc.slen (fun i -> (sc.sids.(i), sc.shts.(i))) in
    Array.sort (fun (_, a) (_, b) -> Float.compare a b) withh;
    Array.to_list (Array.sub withh 0 (min k_ret (Array.length withh)))
  end

(* How many of the candidate set lie at or below [threshold].  Capped
   at the retrieval count k this equals the count over the k lowest:
   if fewer than k candidates clear the threshold they all belong to
   every k-lowest selection, and otherwise the k lowest all clear it —
   either way no sort (hence no allocation) is needed, and the answer
   does not depend on how ties were ordered. *)
let count_below sc ~threshold =
  let cb = ref 0 in
  for i = 0 to sc.slen - 1 do
    if sc.shts.(i) <= threshold then incr cb
  done;
  !cb

(* Reporting sink for the §4.2 doubling protocol: push the ids whose
   height is at most [threshold] (the caller folds its epsilon in) and
   tell the caller how many were pushed out of how many retrieved, so
   it can decide whether the answer is complete without rebuilding
   lists.  Ids are pushed in candidate-scan order; in the terminating
   case of the protocol (pushed < retrieved) the pushed set is exactly
   every plane at or below the threshold, so the reported set is
   independent of tie order. *)
let k_lowest_into t ~x ~y ~k ~threshold r =
  if k <= 0 then (0, 0)
  else begin
    let sc = Domain.DLS.get scratch_key in
    let k_ret = select t sc ~x ~y ~k ~ids:true in
    let pushed = min (count_below sc ~threshold) k_ret in
    let left = ref pushed in
    let i = ref 0 in
    while !left > 0 do
      if sc.shts.(!i) <= threshold then begin
        Emio.Reporter.add r sc.sids.(!i);
        decr left
      end;
      incr i
    done;
    (pushed, k_ret)
  end

(* Count-only twin of {!k_lowest_into} for the count query paths: same
   probe sequence, same charges, no reporter, zero allocation. *)
let k_lowest_count t ~x ~y ~k ~threshold =
  if k <= 0 then (0, 0)
  else begin
    let sc = Domain.DLS.get scratch_key in
    let k_ret = select t sc ~x ~y ~k ~ids:false in
    (min (count_below sc ~threshold) k_ret, k_ret)
  end

(* -- persistence -------------------------------------------------- *)

(* The portable form of a layer embeds everything: the locator
   portable and the conflicts run with its private store's blocks. *)
type layer_p = {
  lp_sample_size : int;
  lp_locator : locator_p;
  lp_conflicts : float Emio.Run.stored;
}

and locator_p =
  | Grid_p of payload Pointloc.Grid.portable
  | Seg_p of payload Pointloc.Seg_tree.portable

type portable = {
  pt_n : int;
  pt_beta : int;
  pt_clip : float * float * float * float;
  pt_copies : layer_p option array array;
  pt_all : int array * int;
  (* Some: the all-planes store's blocks ride inside this portable
     (the embedded case, e.g. a tradeoff leaf).  None: they are the
     enclosing snapshot's payload, revived from its backend. *)
  pt_all_blocks : float array array option;
  pt_all_block_size : int;
  pt_all_cache : int;
}

let to_portable ?(embed_payload = true) t =
  let all_store = Emio.Run.store t.all_planes in
  {
    pt_n = t.n;
    pt_beta = t.beta;
    pt_clip = t.clip;
    pt_copies =
      Array.map
        (fun c ->
          Array.map
            (Option.map (fun l ->
                 {
                   lp_sample_size = l.sample_size;
                   lp_locator =
                     (match l.locator with
                     | Grid g -> Grid_p (Pointloc.Grid.to_portable g)
                     | Segtree st -> Seg_p (Pointloc.Seg_tree.to_portable st));
                   lp_conflicts = Emio.Run.to_stored l.conflicts;
                 }))
            c.layers)
        t.copies;
    pt_all = Emio.Run.to_portable t.all_planes;
    pt_all_blocks =
      (if embed_payload then Some (Emio.Store.to_blocks all_store) else None);
    pt_all_block_size = Emio.Store.block_size all_store;
    pt_all_cache = Emio.Store.cache_blocks all_store;
  }

let of_portable ~stats ?backend p =
  let all_store =
    match (p.pt_all_blocks, backend) with
    | Some blocks, _ ->
        Emio.Store.of_blocks ~stats ~block_size:p.pt_all_block_size
          ~cache_blocks:p.pt_all_cache ~codec:Emio.Codec.float blocks
    | None, Some backend ->
        Emio.Store.of_backend ~stats ~block_size:p.pt_all_block_size
          ~cache_blocks:p.pt_all_cache ~codec:Emio.Codec.float backend
    | None, None ->
        invalid_arg "Lowest_planes.of_portable: payload not embedded, need backend"
  in
  {
    n = p.pt_n;
    beta = p.pt_beta;
    clip = p.pt_clip;
    copies =
      Array.map
        (fun layers ->
          {
            layers =
              Array.map
                (Option.map (fun l ->
                     {
                       sample_size = l.lp_sample_size;
                       locator =
                         (match l.lp_locator with
                         | Grid_p g -> Grid (Pointloc.Grid.of_portable ~stats g)
                         | Seg_p st ->
                             Segtree (Pointloc.Seg_tree.of_portable ~stats st));
                       conflicts = Emio.Run.of_stored ~stats l.lp_conflicts;
                     }))
                layers;
          })
        p.pt_copies;
    all_planes = Emio.Run.of_portable all_store p.pt_all;
    fallback_count = 0;
  }

let portable_codec =
  let open Emio.Codec in
  let locator_codec =
    custom
      ~write:(fun buf -> function
        | Grid_p g ->
            write_u8 buf 0;
            write (Pointloc.Grid.portable_codec payload_codec) buf g
        | Seg_p st ->
            write_u8 buf 1;
            write (Pointloc.Seg_tree.portable_codec payload_codec) buf st)
      ~read:(fun b pos ->
        match read_u8 b pos with
        | 0 -> Grid_p (read (Pointloc.Grid.portable_codec payload_codec) b pos)
        | 1 ->
            Seg_p (read (Pointloc.Seg_tree.portable_codec payload_codec) b pos)
        | t -> raise (Decode (Printf.sprintf "bad locator tag %d" t)))
  in
  let layer_codec =
    map
      ~decode:(fun (lp_sample_size, lp_locator, lp_conflicts) ->
        { lp_sample_size; lp_locator; lp_conflicts })
      ~encode:(fun l -> (l.lp_sample_size, l.lp_locator, l.lp_conflicts))
      (triple int locator_codec (Emio.Run.stored_codec float))
  in
  map
    ~decode:(fun ((pt_n, pt_beta, pt_clip), (pt_copies, pt_all),
                  (pt_all_blocks, pt_all_block_size, pt_all_cache)) ->
      { pt_n; pt_beta; pt_clip; pt_copies; pt_all; pt_all_blocks;
        pt_all_block_size; pt_all_cache })
    ~encode:(fun p ->
      ( (p.pt_n, p.pt_beta, p.pt_clip),
        (p.pt_copies, p.pt_all),
        (p.pt_all_blocks, p.pt_all_block_size, p.pt_all_cache) ))
    (triple
       (triple int int (quad float float float float))
       (pair (array (array (option layer_codec))) Emio.Run.portable_codec)
       (triple (option (array (array float))) int int))

let payload t =
  let store = Emio.Run.store t.all_planes in
  (Emio.Store.block_size store, Emio.Store.export_bytes store)

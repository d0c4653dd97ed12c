open Geom

(* One dual line with the build-time ids of the data points it
   represents (duplicates of the same point share an entry; that point
   is exactly (-. slope, icept)).  [line] is the line's index in the
   initial deduplicated arrangement — dense in [0, distinct), stable
   across layers — so query-time dedup is an array stamp instead of
   hashing the (slope, icept) key. *)
type entry = { line : int; slope : float; icept : float; ids : int array }

type layer =
  | Clustered of {
      lambda : int;
      clusters : entry Emio.Run.t array;
      (* maps a query abscissa to the relevant cluster: the B-tree
         T_i of §3.2 over the boundary points *)
      btree : (float, int) Xbtree.Btree.t;
    }
  | Scan of entry Emio.Run.t
      (* final layer, |H_m| = O(beta): a plain O(log_B n)-block scan *)

type t = {
  store : entry Emio.Store.t;
  layer_list : layer array;
  length : int;
  block_size : int;
  beta : int;
  (* diagnostic gauges for the last query; racy under concurrent
     queries, which is fine for a "last query" counter *)
  mutable last_clusters_visited : int;
  mutable last_layers_visited : int;
  distinct : int; (* scratch slots a query needs: distinct dual lines *)
}

(* Query-time dedup scratch, one slot per distinct dual line: a line
   is "marked" when its slot holds the current epoch, so resetting a
   mark set is one counter bump, and the hot loops never hash or
   allocate.  The scratch lives in domain-local storage ([Domain.DLS]),
   not in [t]: the batch engine fans queries against one shared [t]
   out across domains, and epoch marks are exactly the state that
   must not be shared between concurrently running queries.  One
   scratch per domain, grown to the largest structure it has served. *)
type scratch = {
  mutable reported_at : int array;
  mutable above_at : int array;
  mutable epoch : int;
}

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { reported_at = [||]; above_at = [||]; epoch = 0 })

let scratch_for t =
  let sc = Domain.DLS.get scratch_key in
  if Array.length sc.reported_at < t.distinct then begin
    (* fresh zeroed arrays: epoch restarts above 0, so no stale marks *)
    sc.reported_at <- Array.make t.distinct 0;
    sc.above_at <- Array.make t.distinct 0;
    sc.epoch <- 0
  end;
  sc

let length t = t.length
let layers t = Array.length t.layer_list
let last_clusters_visited t = t.last_clusters_visited
let last_layers_visited t = t.last_layers_visited

let lambdas t =
  Array.map
    (function Clustered { lambda; _ } -> lambda | Scan _ -> 0)
    t.layer_list

let space_blocks t =
  Emio.Store.blocks_used t.store
  + Array.fold_left
      (fun acc -> function
        | Clustered { btree; _ } -> acc + Xbtree.Btree.space_blocks btree
        | Scan _ -> acc)
      0 t.layer_list

let log_base b x = log x /. log b

(* beta = B log_B n, at least 1 (paper §3.2). *)
let compute_beta ~block_size n_points =
  let n = float_of_int (max 1 ((n_points + block_size - 1) / block_size)) in
  let b = float_of_int block_size in
  max 1 (int_of_float (ceil (b *. max 1. (log_base b n))))

let dedupe points =
  let tbl = Hashtbl.create (2 * Array.length points) in
  Array.iteri
    (fun i p ->
      let key = (Point2.x p, Point2.y p) in
      match Hashtbl.find_opt tbl key with
      | Some l -> Hashtbl.replace tbl key (i :: l)
      | None -> Hashtbl.add tbl key [ i ])
    points;
  Hashtbl.fold
    (fun _ ids acc ->
      let l = Dual2.line_of_point points.(List.hd ids) in
      {
        line = 0;
        slope = Line2.slope l;
        icept = Line2.icept l;
        ids = Array.of_list ids;
      }
      :: acc)
    tbl []
  |> Array.of_list
  |> Array.mapi (fun line e -> { e with line })

let entry_codec =
  Emio.Codec.map
    ~decode:(fun ((line, slope, icept), ids) -> { line; slope; icept; ids })
    ~encode:(fun e -> ((e.line, e.slope, e.icept), e.ids))
    Emio.Codec.(pair (triple int float float) (array int))

let build ~stats ~block_size ?(cache_blocks = 0) ?(seed = 0) points =
  let store =
    Emio.Store.create ~stats ~block_size ~cache_blocks ~codec:entry_codec ()
  in
  let beta = compute_beta ~block_size (Array.length points) in
  let rng = Random.State.make [| seed; 0x2d; Array.length points |] in
  let deduped = dedupe points in
  let distinct = Array.length deduped in
  let remaining = ref deduped in
  (* one walk tree for the whole build, compacted as layers peel off
     (substitution 2: the walk's vertices do not depend on its shape) *)
  let tree =
    lazy
      (Arrangement.Level_walk.tree_of_lines
         (Array.map
            (fun e -> Line2.make ~slope:e.slope ~icept:e.icept)
            deduped))
  in
  let built = ref [] in
  let finished = ref false in
  while not !finished do
    let entries = !remaining in
    let m = Array.length entries in
    if m <= 4 * beta then begin
      (* last layer: small enough to scan within the O(log_B n) budget *)
      if m > 0 then built := Scan (Emio.Run.of_array store entries) :: !built;
      finished := true
    end
    else begin
      let lambda = beta + Random.State.int rng (beta + 1) in
      let tree = Lazy.force tree in
      let clustering = Arrangement.Clustering.greedy ~tree ~k:lambda in
      let runs =
        Array.map
          (fun (c : Arrangement.Clustering.cluster) ->
            Emio.Run.of_array store
              (Array.map (fun id -> entries.(id)) c.lines))
          clustering.clusters
      in
      let btree =
        Xbtree.Btree.bulk_load ~stats ~block_size ~cache_blocks ~cmp:compare
          (Array.mapi (fun i x -> (x, i)) clustering.boundaries)
      in
      built := Clustered { lambda; clusters = runs; btree } :: !built;
      (* L_i = lines appearing in some cluster; H_{i+1} = H_i \ L_i,
         in H_i's order *)
      let in_layer = Array.make m false in
      Array.iter
        (fun (c : Arrangement.Clustering.cluster) ->
          Array.iter (fun id -> in_layer.(id) <- true) c.lines)
        clustering.clusters;
      let rest = Vec.create () in
      Array.iteri
        (fun id e -> if not in_layer.(id) then Vec.push rest e)
        entries;
      let rest = Vec.to_array rest in
      if Array.length rest = m then
        (* degenerate guard: no progress would loop forever *)
        invalid_arg "Halfspace2d.build: clustering made no progress";
      remaining := rest;
      if Array.length rest = 0 then finished := true
      else Arrangement.Level_walk.compact tree ~peeled:in_layer
    end
  done;
  {
    store;
    layer_list = Array.of_list (List.rev !built);
    length = Array.length points;
    block_size;
    beta;
    last_clusters_visited = 0;
    last_layers_visited = 0;
    distinct = max 1 distinct;
  }

(* Is the dual line below (or through) the dual query point (px,py)? *)
let below_query ~px ~py e = (e.slope *. px) +. e.icept <= py +. Eps.eps

(* Query one clustered layer, passing each distinct entry of L_i below
   the query point to [report].  Returns whether the overall query may
   halt here (Lemma 3.1) and the number of clusters visited (the
   r - l + 1 of Lemma 3.4).  Dedup stays (the same line appears in
   several overlapping clusters) but runs on the domain's epoch-stamped
   scratch arrays — the former per-layer hash tables keyed by boxed
   (slope, icept) tuples dominated the query's CPU profile. *)
let query_clustered sc ~px ~py ~lambda ~clusters ~btree ~report =
  let u = Array.length clusters in
  let relevant =
    match Xbtree.Btree.predecessor btree px with
    | Some (_, idx) -> idx + 1
    | None -> 0
  in
  let reported_at = sc.reported_at and qe = sc.epoch in
  let report e =
    if reported_at.(e.line) <> qe then begin
      reported_at.(e.line) <- qe;
      report e
    end
  in
  (* scan the relevant cluster, counting lines below the query point *)
  let below_relevant = ref 0 in
  Emio.Run.iter
    (fun e ->
      if below_query ~px ~py e then begin
        incr below_relevant;
        report e
      end)
    clusters.(relevant);
  if !below_relevant < lambda then (true, 1)
  else begin
    (* walk right, then left, per Lemma 3.4: stop once more than
       lambda distinct lines of the walked union lie above the query *)
    let visited = ref 1 in
    let walk step =
      sc.epoch <- sc.epoch + 1;
      let above_at = sc.above_at and we = sc.epoch in
      let above = ref 0 in
      let k = ref (relevant + step) in
      let stop = ref false in
      while (not !stop) && !k >= 0 && !k < u do
        incr visited;
        Emio.Run.iter
          (fun e ->
            if below_query ~px ~py e then report e
            else if above_at.(e.line) <> we then begin
              above_at.(e.line) <- we;
              incr above
            end)
          clusters.(!k);
        if !above > lambda then stop := true else k := !k + step
      done
    in
    walk 1;
    walk (-1);
    (false, !visited)
  end

(* The shared traversal: every distinct answering entry goes through
   [report], so list, id-sink and counting callers run the identical
   (I/O-identical) layer walk. *)
let iter_entries t ~slope ~icept report =
  let px = slope and py = icept in
  let halted = ref false in
  let i = ref 0 in
  let sc = scratch_for t in
  sc.epoch <- sc.epoch + 1;
  t.last_clusters_visited <- 0;
  while (not !halted) && !i < Array.length t.layer_list do
    if Emio.Cost_ctx.tracing () then
      Emio.Cost_ctx.emit (Level { label = "h2" });
    (match t.layer_list.(!i) with
    | Scan run ->
        Emio.Run.iter
          (fun e -> if below_query ~px ~py e then report e)
          run;
        halted := true
    | Clustered { lambda; clusters; btree } ->
        let stop, visited =
          query_clustered sc ~px ~py ~lambda ~clusters ~btree ~report
        in
        t.last_clusters_visited <- t.last_clusters_visited + visited;
        if stop then halted := true);
    incr i
  done;
  t.last_layers_visited <- !i

let query_ids_into t ~slope ~icept r =
  iter_entries t ~slope ~icept (fun e ->
      for k = 0 to Array.length e.ids - 1 do
        Emio.Reporter.add r e.ids.(k)
      done)

let query t ~slope ~icept =
  let acc = ref [] in
  iter_entries t ~slope ~icept (fun e ->
      let p = Point2.make (-.e.slope) e.icept in
      Array.iter (fun _ -> acc := p :: !acc) e.ids);
  !acc

let query_count t ~slope ~icept =
  let n = ref 0 in
  iter_entries t ~slope ~icept (fun e -> n := !n + Array.length e.ids);
  !n

(* Persistence: the entry store is the snapshot payload; layer lists
   and the per-layer boundary B-trees ride in the skeleton as a
   closure-free record (runs become block ids, B-trees their portable
   form — the key comparator is [compare], reapplied at load). *)

type layer_p =
  | Clustered_p of {
      cp_lambda : int;
      cp_clusters : (int array * int) array;
      cp_btree : (float, int) Xbtree.Btree.portable;
    }
  | Scan_p of (int array * int)

type skeleton = {
  sk_layers : layer_p array;
  sk_length : int;
  sk_block_size : int;
  sk_cache_blocks : int;
  sk_beta : int;
  sk_scratch : int;
}

let skeleton_codec =
  let open Emio.Codec in
  let layer_codec =
    custom
      ~write:(fun buf -> function
        | Clustered_p { cp_lambda; cp_clusters; cp_btree } ->
            write_u8 buf 0;
            write int buf cp_lambda;
            write (array Emio.Run.portable_codec) buf cp_clusters;
            write (Xbtree.Btree.portable_codec float int) buf cp_btree
        | Scan_p run ->
            write_u8 buf 1;
            write Emio.Run.portable_codec buf run)
      ~read:(fun b pos ->
        match read_u8 b pos with
        | 0 ->
            let cp_lambda = read int b pos in
            let cp_clusters = read (array Emio.Run.portable_codec) b pos in
            let cp_btree = read (Xbtree.Btree.portable_codec float int) b pos in
            Clustered_p { cp_lambda; cp_clusters; cp_btree }
        | 1 -> Scan_p (read Emio.Run.portable_codec b pos)
        | t -> raise (Decode (Printf.sprintf "bad h2 layer tag %d" t)))
  in
  map
    ~decode:(fun (sk_layers, (sk_length, sk_block_size, sk_cache_blocks),
                  (sk_beta, sk_scratch)) ->
      { sk_layers; sk_length; sk_block_size; sk_cache_blocks; sk_beta;
        sk_scratch })
    ~encode:(fun sk ->
      ( sk.sk_layers,
        (sk.sk_length, sk.sk_block_size, sk.sk_cache_blocks),
        (sk.sk_beta, sk.sk_scratch) ))
    (triple (array layer_codec) (triple int int int) (pair int int))

let to_skeleton t =
  {
    sk_layers =
      Array.map
        (function
          | Clustered { lambda; clusters; btree } ->
              Clustered_p
                {
                  cp_lambda = lambda;
                  cp_clusters = Array.map Emio.Run.to_portable clusters;
                  cp_btree = Xbtree.Btree.to_portable btree;
                }
          | Scan run -> Scan_p (Emio.Run.to_portable run))
        t.layer_list;
    sk_length = t.length;
    sk_block_size = t.block_size;
    sk_cache_blocks = Emio.Store.cache_blocks t.store;
    sk_beta = t.beta;
    sk_scratch = t.distinct;
  }

let of_skeleton ~stats ~backend sk =
  let store =
    Emio.Store.of_backend ~stats ~block_size:sk.sk_block_size
      ~cache_blocks:sk.sk_cache_blocks ~codec:entry_codec backend
  in
  {
    store;
    layer_list =
      Array.map
        (function
          | Clustered_p { cp_lambda; cp_clusters; cp_btree } ->
              Clustered
                {
                  lambda = cp_lambda;
                  clusters =
                    Array.map (Emio.Run.of_portable store) cp_clusters;
                  btree =
                    Xbtree.Btree.of_portable ~stats ~cmp:compare cp_btree;
                }
          | Scan_p run -> Scan (Emio.Run.of_portable store run))
        sk.sk_layers;
    length = sk.sk_length;
    block_size = sk.sk_block_size;
    beta = sk.sk_beta;
    last_clusters_visited = 0;
    last_layers_visited = 0;
    distinct = max 1 sk.sk_scratch;
  }

let snapshot =
  Diskstore.Snapshot.format ~kind:"lcsearch.h2" ~version:2 ~codec:skeleton_codec
    ~payload:(fun t -> (t.block_size, Emio.Store.export_bytes t.store))
    ~to_skeleton ~of_skeleton

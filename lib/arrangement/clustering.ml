open Geom

type cluster = { lines : int array; left_x : float; right_x : float }

type t = {
  clusters : cluster array;
  boundaries : float array;
  level_complexity : int;
}

let greedy ~tree ~k =
  let n = Level_walk.size tree in
  if k < 1 || k >= n then invalid_arg "Clustering.greedy: need 1 <= k < n";
  let cap = 3 * k in
  let sl = Array.init n (Level_walk.slope tree)
  and ic = Array.init n (Level_walk.icept tree) in
  (* L_{w_0}: the k lines lowest at x = -infinity (largest slope,
     ties broken towards smaller intercept); distinct lines make this
     a strict order, so the set is the first k of a sort *)
  let order = Level_walk.left_order tree (k - 1) in
  (* the open cluster's lines: [mem.(0 .. count-1)] in arrival order,
     flagged in [is_mem] *)
  let mem = Array.make n 0 and count = ref 0 in
  let is_mem = Array.make n false in
  let add id =
    if not is_mem.(id) then begin
      is_mem.(id) <- true;
      mem.(!count) <- id;
      incr count
    end
  in
  for i = 0 to k - 1 do
    add order.(i)
  done;
  let cluster_start = ref neg_infinity in
  let finished_clusters = ref [] in
  let close_cluster right_x =
    let ids = Array.sub mem 0 !count in
    Array.sort
      (fun i j ->
        let c = Float.compare sl.(i) sl.(j) in
        if c <> 0 then c else Float.compare ic.(i) ic.(j))
      ids;
    finished_clusters :=
      { lines = ids; left_x = !cluster_start; right_x } :: !finished_clusters;
    cluster_start := right_x
  in
  let on_event (ev : Level_walk.event) ~below_after =
    match ev.kind with
    | Level_walk.Concave -> ()
    | Level_walk.Convex ->
        (* the line through the vertex with minimum slope is the
           incoming edge line; it continues below the level *)
        let l = ev.incoming in
        if not is_mem.(l) then begin
          if !count < cap then add l
          else begin
            (* close C_i at w_i = this vertex; the next cluster starts
               from the lines strictly below w_i plus l itself, which
               is exactly L^- after the vertex *)
            close_cluster (Point2.x ev.vertex);
            for i = 0 to !count - 1 do
              is_mem.(mem.(i)) <- false
            done;
            count := 0;
            List.iter add (below_after ())
          end
        end
  in
  let level = Level_walk.walk ~on_event ~tree ~k () in
  close_cluster infinity;
  let clusters = Array.of_list (List.rev !finished_clusters) in
  let boundaries =
    Array.init
      (max 0 (Array.length clusters - 1))
      (fun i -> clusters.(i).right_x)
  in
  { clusters; boundaries; level_complexity = Level_walk.complexity level }

let relevant t x =
  (* number of boundaries <= x *)
  let lo = ref 0 and hi = ref (Array.length t.boundaries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.boundaries.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

let size t = Array.length t.clusters

let max_cluster_size t =
  Array.fold_left (fun m c -> max m (Array.length c.lines)) 0 t.clusters

open Geom

type cluster = { lines : int array; left_x : float; right_x : float }

type t = {
  clusters : cluster array;
  boundaries : float array;
  level_complexity : int;
}

let cmp_lines (all : Line2.t array) i j =
  let c = Float.compare (Line2.slope all.(i)) (Line2.slope all.(j)) in
  if c <> 0 then c
  else Float.compare (Line2.icept all.(i)) (Line2.icept all.(j))

let greedy ~lines ~k =
  let n = Array.length lines in
  if k < 1 || k >= n then invalid_arg "Clustering.greedy: need 1 <= k < n";
  let cap = 3 * k in
  (* L_{w_0}: the k lines lowest at x = -infinity (largest slope,
     ties broken towards smaller intercept). *)
  let order = Array.init n Fun.id in
  Array.sort
    (fun i j ->
      let c = Float.compare (Line2.slope lines.(j)) (Line2.slope lines.(i)) in
      if c <> 0 then c
      else Float.compare (Line2.icept lines.(i)) (Line2.icept lines.(j)))
    order;
  let members = Hashtbl.create (2 * cap) in
  for i = 0 to k - 1 do
    Hashtbl.replace members order.(i) ()
  done;
  let cluster_start = ref neg_infinity in
  let finished_clusters = ref [] in
  let close_cluster right_x =
    let ids = Hashtbl.fold (fun id () acc -> id :: acc) members [] in
    let ids = Array.of_list ids in
    Array.sort (cmp_lines lines) ids;
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
        if not (Hashtbl.mem members l) then begin
          if Hashtbl.length members < cap then Hashtbl.replace members l ()
          else begin
            (* close C_i at w_i = this vertex; the next cluster starts
               from the lines strictly below w_i plus l itself, which
               is exactly L^- after the vertex *)
            close_cluster (Point2.x ev.vertex);
            Hashtbl.reset members;
            List.iter (fun id -> Hashtbl.replace members id ()) (below_after ())
          end
        end
  in
  let level = Level_walk.walk ~on_event ~lines ~k () in
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

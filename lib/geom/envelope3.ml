type triangle = {
  plane : int;
  corners : Point2.t array;
  corner_z : float array;
  conflicts : int array;
}

type t = {
  triangles : triangle array;
  sample : int array;
}

(* A face-polygon corner, before conflict resolution. *)
type corner_kind =
  | Vertex of int  (* index into the lower-facet array *)
  | Wall of int * float  (* wall id 0..3, parameter along the wall *)
  | Orphan  (* numerically unresolved: exact fallback scan *)

let match_tol = 1e-6

let wall_of ~clip x y =
  let xmin, ymin, xmax, ymax = clip in
  let near a b = Float.abs (a -. b) <= match_tol *. (1. +. Float.abs b) in
  if near x xmin then Some (0, y)
  else if near x xmax then Some (1, y)
  else if near y ymin then Some (2, x)
  else if near y ymax then Some (3, x)
  else None

(* The plane z = a x + b y + c restricted to wall [w], at x = xmin,
   x = xmax, y = ymin or y = ymax: on the wall x = x0 it is the line
   z = b y + (a x0 + c) in (y, z), on y = y0 the line
   z = a x + (b y0 + c) in (x, z). *)
let wall_slope p w = if w < 2 then Plane3.b p else Plane3.a p

let wall_icept p w ~clip =
  let xmin, ymin, xmax, ymax = clip in
  match w with
  | 0 -> (Plane3.a p *. xmin) +. Plane3.c p
  | 1 -> (Plane3.a p *. xmax) +. Plane3.c p
  | 2 -> (Plane3.b p *. ymin) +. Plane3.c p
  | _ -> (Plane3.b p *. ymax) +. Plane3.c p

(* The sorted union of three strictly ascending int arrays: every
   list whose head is the least value steps past it, so no value is
   emitted twice. *)
let merge3 buf a b c =
  let la = Array.length a and lb = Array.length b and lc = Array.length c in
  let need = la + lb + lc in
  if Array.length !buf < need then
    buf := Array.make (max need (2 * Array.length !buf)) 0;
  let out = !buf in
  let i = ref 0 and j = ref 0 and k = ref 0 and len = ref 0 in
  while !i < la || !j < lb || !k < lc do
    let x = if !i < la then a.(!i) else max_int in
    let x = if !j < lb && b.(!j) < x then b.(!j) else x in
    let x = if !k < lc && c.(!k) < x then c.(!k) else x in
    if !i < la && a.(!i) = x then incr i;
    if !j < lb && b.(!j) = x then incr j;
    if !k < lc && c.(!k) = x then incr k;
    out.(!len) <- x;
    incr len
  done;
  Array.sub out 0 !len

(* Sorts every facet's conflict array, all at once and in linear time:
   the (facet, entry) pairs are bucketed by plane id in [0, n), then
   each plane id, ascending, is appended to its facets' arrays. *)
let sort_conflicts n (lower : Hull3.facet array) =
  let start = Array.make (n + 1) 0 in
  Array.iter
    (fun (f : Hull3.facet) ->
      Array.iter (fun g -> start.(g + 1) <- start.(g + 1) + 1) f.conflicts)
    lower;
  for g = 1 to n do
    start.(g) <- start.(g) + start.(g - 1)
  done;
  (* after this pass start.(g) is where bucket g + 1 begins *)
  let owner = Array.make start.(n) 0 in
  Array.iteri
    (fun fi (f : Hull3.facet) ->
      Array.iter
        (fun g ->
          owner.(start.(g)) <- fi;
          start.(g) <- start.(g) + 1)
        f.conflicts)
    lower;
  let fill = Array.make (Array.length lower) 0 and k = ref 0 in
  for g = 0 to n - 1 do
    while !k < start.(g) do
      let fi = owner.(!k) in
      lower.(fi).conflicts.(fill.(fi)) <- g;
      fill.(fi) <- fill.(fi) + 1;
      incr k
    done
  done

let build ~planes ~hull ~clip =
  let n = Array.length planes in
  let xmin, ymin, xmax, ymax = clip in
  if xmin >= xmax || ymin >= ymax then
    invalid_arg "Envelope3.build: empty clip box";
  let lower = Hull3.lower_facets hull in
  let sample = Hull3.sample hull in
  (* plan-view position of each envelope vertex (= lower hull facet) *)
  let facet_pos =
    Array.map
      (fun (f : Hull3.facet) ->
        let n = f.normal in
        Point2.make (Point3.x n /. Point3.z n) (Point3.y n /. Point3.z n))
      lower
  in
  (* group the facets around each hull vertex = envelope face *)
  let faces : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun fi (f : Hull3.facet) ->
      List.iter
        (fun v ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt faces v) in
          Hashtbl.replace faces v (fi :: prev))
        [ f.a; f.b; f.c ])
    lower;
  (* --- build the clipped face polygon of each plane ---------------- *)
  let box = Polygon2.of_box ~xmin ~ymin ~xmax ~ymax in
  let face_polys = ref [] in
  Hashtbl.iter
    (fun h facet_idxs ->
      let nbrs = Hashtbl.create 8 in
      List.iter
        (fun fi ->
          let f = lower.(fi) in
          List.iter
            (fun v -> if v <> h then Hashtbl.replace nbrs v ())
            [ f.a; f.b; f.c ])
        facet_idxs;
      let hp = planes.(h) in
      let poly =
        Hashtbl.fold
          (fun j () poly ->
            let jp = planes.(j) in
            (* keep the region where h <= h_j *)
            Polygon2.clip_halfplane poly
              ~fa:(Plane3.a hp -. Plane3.a jp)
              ~fb:(Plane3.b hp -. Plane3.b jp)
              ~fc:(Plane3.c hp -. Plane3.c jp))
          nbrs box
      in
      if not (Polygon2.is_empty poly) then
        face_polys := (h, facet_idxs, poly) :: !face_polys)
    faces;
  (* --- classify polygon corners ------------------------------------ *)
  let classify facet_idxs (p : Point2.t) =
    let matched =
      List.find_opt
        (fun fi ->
          let fp = facet_pos.(fi) in
          Float.abs (Point2.x fp -. Point2.x p)
          <= match_tol *. (1. +. Float.abs (Point2.x p))
          && Float.abs (Point2.y fp -. Point2.y p)
             <= match_tol *. (1. +. Float.abs (Point2.y p)))
        facet_idxs
    in
    match matched with
    | Some fi -> Vertex fi
    | None -> (
        match wall_of ~clip (Point2.x p) (Point2.y p) with
        | Some (w, u) -> Wall (w, u)
        | None -> Orphan)
  in
  (* --- conflicts for wall corners via 2-D wall envelopes ----------- *)
  let face_arr = Array.of_list !face_polys in
  (* corners are numbered face by face: face [i]'s corner [ci] is
     corner [first_corner.(i) + ci] *)
  let first_corner = Array.make (Array.length face_arr + 1) 0 in
  Array.iteri
    (fun i (_, _, poly) ->
      first_corner.(i + 1) <-
        first_corner.(i) + Array.length (Polygon2.vertices poly))
    face_arr;
  (* (wall, param, corner) of every wall corner *)
  let wall_corners = ref [] in
  let face_corner_kinds =
    Array.mapi
      (fun face_i (_, facet_idxs, poly) ->
        Array.mapi
          (fun ci p ->
            let k = classify facet_idxs p in
            (match k with
            | Wall (w, u) ->
                let corner = first_corner.(face_i) + ci in
                wall_corners := (w, u, corner) :: !wall_corners
            | _ -> ());
            k)
          (Polygon2.vertices poly))
      face_arr
  in
  (* each wall corner's conflicts, prepended to as g ascends *)
  let wall_conflicts = Array.make first_corner.(Array.length face_arr) [] in
  let interval = [| 0.; 0. |] in
  for w = 0 to 3 do
    let corners =
      List.filter (fun (w', _, _) -> w' = w) !wall_corners
      |> List.map (fun (_, u, corner) -> (u, corner))
      |> List.sort compare |> Array.of_list
    in
    if corners <> [||] then begin
      let env =
        Envelope2.build Envelope2.Lower
          (Array.map
             (fun i ->
               let p = planes.(i) in
               Line2.make ~slope:(wall_slope p w) ~icept:(wall_icept p w ~clip))
             sample)
      in
      let params = Array.map fst corners in
      for g = 0 to n - 1 do
        if not (Hull3.in_sample hull g) then begin
          let p = planes.(g) in
          if
            Envelope2.outer_interval env ~slope:(wall_slope p w)
              ~icept:(wall_icept p w ~clip) interval
          then begin
            (* stab corners with lo < u < hi *)
            let lo = interval.(0) and hi = interval.(1) in
            let first =
              let l = ref 0 and r = ref (Array.length params) in
              while !l < !r do
                let m = (!l + !r) / 2 in
                if params.(m) <= lo then l := m + 1 else r := m
              done;
              !l
            in
            let i = ref first in
            while !i < Array.length params && params.(!i) < hi do
              let corner = snd corners.(!i) in
              wall_conflicts.(corner) <- g :: wall_conflicts.(corner);
              incr i
            done
          end
        end
      done
    end
  done;
  (* --- assemble triangles ------------------------------------------ *)
  let orphan_conflicts h (p : Point2.t) =
    (* exact fallback: scan all non-sample planes *)
    let hz = Plane3.eval planes.(h) (Point2.x p) (Point2.y p) in
    let acc = ref [] in
    for g = 0 to n - 1 do
      if
        (not (Hull3.in_sample hull g))
        && Plane3.eval planes.(g) (Point2.x p) (Point2.y p) < hz -. Eps.eps
      then acc := g :: !acc
    done;
    !acc
  in
  let triangles = ref [] in
  (* every corner's conflict list as an ascending array, so a
     triangle's union is one merge: facet lists are sorted once (they
     are this build's own exports), wall and orphan lists were
     prepended to as g ascended *)
  sort_conflicts n lower;
  let ascending l = Array.of_list (List.rev l) in
  let buf = ref [||] in
  Array.iteri
    (fun face_i (h, _, poly) ->
      let verts = Polygon2.vertices poly in
      let kinds = face_corner_kinds.(face_i) in
      let corner_conflicts ci =
        match kinds.(ci) with
        | Vertex fi -> lower.(fi).Hull3.conflicts
        | Wall _ -> ascending wall_conflicts.(first_corner.(face_i) + ci)
        | Orphan -> ascending (orphan_conflicts h verts.(ci))
      in
      let nv = Array.length verts in
      let lists = Array.init nv corner_conflicts in
      (* fan from the corner with the smallest conflict list: it is the
         one replicated into every triangle of the face, so this keeps
         the stored sum of |K(Δ)| near the Lemma 4.1 optimum *)
      let fan0 = ref 0 in
      for ci = 1 to nv - 1 do
        if Array.length lists.(ci) < Array.length lists.(!fan0) then
          fan0 := ci
      done;
      let rot i = (i + !fan0) mod nv in
      for i = 1 to nv - 2 do
        let idxs = [| rot 0; rot i; rot (i + 1) |] in
        let corners = Array.map (fun ci -> verts.(ci)) idxs in
        triangles :=
          {
            plane = h;
            corners;
            corner_z =
              Array.map
                (fun p -> Plane3.eval planes.(h) (Point2.x p) (Point2.y p))
                corners;
            conflicts =
              merge3 buf lists.(idxs.(0)) lists.(idxs.(1)) lists.(idxs.(2));
          }
          :: !triangles
      done)
    face_arr;
  { triangles = Array.of_list !triangles; sample }

let contains_tri (tri : triangle) x y =
  let p = Point2.make x y in
  let c = tri.corners in
  (* accept boundary within tolerance: orientation may be either sign
     order depending on fan direction, so test both *)
  let o1 = Point2.orient c.(0) c.(1) p
  and o2 = Point2.orient c.(1) c.(2) p
  and o3 = Point2.orient c.(2) c.(0) p in
  (o1 >= 0 && o2 >= 0 && o3 >= 0) || (o1 <= 0 && o2 <= 0 && o3 <= 0)

let locate_brute t x y =
  let found = ref None in
  Array.iteri
    (fun i tri ->
      if !found = None && contains_tri tri x y then found := Some i)
    t.triangles;
  !found

let envelope_height t tri x y =
  (* reconstruct z = a x + b y + c of the triangle's plane from its
     three corners and evaluate it at (x, y) *)
  let tr = t.triangles.(tri) in
  let cx i = Point2.x tr.corners.(i) and cy i = Point2.y tr.corners.(i) in
  let z i = tr.corner_z.(i) in
  let d1x = cx 1 -. cx 0 and d1y = cy 1 -. cy 0 and d1z = z 1 -. z 0 in
  let d2x = cx 2 -. cx 0 and d2y = cy 2 -. cy 0 and d2z = z 2 -. z 0 in
  let det = (d1x *. d2y) -. (d1y *. d2x) in
  if Float.abs det < 1e-18 then z 0
  else begin
    let a = ((d1z *. d2y) -. (d1y *. d2z)) /. det in
    let b = ((d1x *. d2z) -. (d1z *. d2x)) /. det in
    z 0 +. (a *. (x -. cx 0)) +. (b *. (y -. cy 0))
  end

let total_conflict_size t =
  Array.fold_left
    (fun acc tri -> acc + Array.length tri.conflicts)
    0 t.triangles

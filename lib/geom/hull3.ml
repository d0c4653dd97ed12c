type facet = {
  a : int;
  b : int;
  c : int;
  normal : Point3.t;
  conflicts : int array;
}

(* Facets live in flat arrays indexed by creation id.  [nx]/[ny]/[nz]
   cache each facet's normal [cross (b - a) (c - a)], so the visibility
   test [((nx dx + ny dy) + nz dz) > vol_eps] evaluates exactly the
   expression tree of [Point3.orient3] without re-deriving the normal.
   [confl.(id)] lists the points found in conflict when the facet was
   created, most recently found first (a dead facet's array may hold
   points inserted since; the candidate scans skip them).  Facet
   creation order, normals and conflict order are all output; the
   digests in test/test_hull3.ml and the snapshot hashes in
   test/build_digests.txt pin them bit for bit.  [size] is the number
   of [order] entries inserted so far: the sample is
   [order.(0 .. size-1)]. *)
type t = {
  mutable count : int;
  mutable fa : int array;
  mutable fb : int array;
  mutable fc : int array;
  mutable nx : float array;
  mutable ny : float array;
  mutable nz : float array;
  mutable alive : bool array;
  mutable confl : int array array;
  inserted : bool array;
  order : int array;
  mutable size : int;
}

(* Visibility epsilon: volumes below this are treated as coplanar.
   Inputs are assumed scaled to moderate coordinates (workload
   generators produce O(1)..O(10^3) ranges). *)
let vol_eps = 1e-9

let grow t =
  let more a x = Array.append a (Array.make (Array.length a) x) in
  t.fa <- more t.fa 0;
  t.fb <- more t.fb 0;
  t.fc <- more t.fc 0;
  t.nx <- more t.nx 0.;
  t.ny <- more t.ny 0.;
  t.nz <- more t.nz 0.;
  t.alive <- more t.alive false;
  t.confl <- more t.confl [||]

(* Growable int stack, for the per-point conflict lists. *)
type ints = { mutable data : int array; mutable len : int }

let push s x =
  if s.len = Array.length s.data then
    s.data <- Array.append s.data (Array.make s.len 0);
  s.data.(s.len) <- x;
  s.len <- s.len + 1

module Edges = Hashtbl.Make (Int)

(* The initial tetrahedron: the first four affinely independent points
   of [order.(0 .. limit-1)], each tested against those already found,
   with the position just past the fourth, or None. *)
let find_tetra ~points ~order ~limit =
  let found = ref [] and stop = ref 0 in
  (try
     for idx = 0 to limit - 1 do
       let p = order.(idx) in
       let ok =
         match !found with
         | [] -> true
         | [ a ] -> Point3.equal points.(a) points.(p) |> not
         | [ a; b ] ->
             let cr =
               Point3.cross
                 (Point3.sub points.(b) points.(a))
                 (Point3.sub points.(p) points.(a))
             in
             Point3.dot cr cr > vol_eps
         | [ a; b; c ] ->
             Float.abs (Point3.orient3 points.(a) points.(b) points.(c) points.(p))
             > vol_eps
         | _ -> false
       in
       if ok then begin
         found := !found @ [ p ];
         if List.length !found = 4 then begin
           stop := idx + 1;
           raise Exit
         end
       end
     done
   with Exit -> ());
  match !found with [ a; b; c; d ] -> Some ((a, b, c, d), !stop) | _ -> None

(* The insertion loop behind [map_prefixes], from the tetrahedron
   found at positions [0 .. tetra_end-1] of [order]. *)
let run ~points ~order ~prefixes ~tetra:(t0, t1, t2, t3) ~tetra_end f =
  let n = Array.length points in
  let last = prefixes.(Array.length prefixes - 1) in
  let inserted = Array.make n false in
  List.iter (fun i -> inserted.(i) <- true) [ t0; t1; t2; t3 ];
  let px = Array.map Point3.x points
  and py = Array.map Point3.y points
  and pz = Array.map Point3.z points in
  let ix, iy, iz =
    let avg c = (c.(t0) +. c.(t1) +. c.(t2) +. c.(t3)) /. 4. in
    (avg px, avg py, avg pz)
  in
  let cap = max 16 (4 * last) in
  let t =
    {
      count = 0;
      fa = Array.make cap 0;
      fb = Array.make cap 0;
      fc = Array.make cap 0;
      nx = Array.make cap 0.;
      ny = Array.make cap 0.;
      nz = Array.make cap 0.;
      alive = Array.make cap false;
      confl = Array.make cap [||];
      inserted;
      order;
      size = 0;
    }
  in
  (* directed edge (u,v), keyed u*n+v -> id of the last facet created
     with it *)
  let edge_tbl = Edges.create 256 in
  (* point id -> facet ids it has been in conflict with, most recent
     first (may contain dead facets; filtered on use): a linked list
     through [pc_fid]/[pc_next], headed at [pc_head] *)
  let pc_head = Array.make n (-1) in
  let pc_fid = { data = Array.make (max 16 n) 0; len = 0 } in
  let pc_next = { data = Array.make (max 16 n) 0; len = 0 } in
  (* dedup of the candidates of one new facet *)
  let stamp = Array.make n (-1) in
  let found = Array.make n 0 in
  let set_normal id a b c =
    let bax = px.(b) -. px.(a) and bay = py.(b) -. py.(a)
    and baz = pz.(b) -. pz.(a) in
    let cax = px.(c) -. px.(a) and cay = py.(c) -. py.(a)
    and caz = pz.(c) -. pz.(a) in
    t.fa.(id) <- a;
    t.fb.(id) <- b;
    t.fc.(id) <- c;
    t.nx.(id) <- (bay *. caz) -. (baz *. cay);
    t.ny.(id) <- (baz *. cax) -. (bax *. caz);
    t.nz.(id) <- (bax *. cay) -. (bay *. cax)
  in
  (* [new_facet a b c first second] tests the candidates [first] then
     [second], each point once, in that order *)
  let new_facet a b c first second =
    if t.count = Array.length t.fa then grow t;
    let id = t.count in
    t.count <- id + 1;
    (* orient so that the interior is on the inner side *)
    set_normal id a b c;
    let v =
      (t.nx.(id) *. (ix -. px.(a)))
      +. (t.ny.(id) *. (iy -. py.(a)))
      +. (t.nz.(id) *. (iz -. pz.(a)))
    in
    if not (v < 0.) then set_normal id a c b;
    let a = t.fa.(id) and b = t.fb.(id) and c = t.fc.(id) in
    t.alive.(id) <- true;
    Edges.replace edge_tbl ((a * n) + b) id;
    Edges.replace edge_tbl ((b * n) + c) id;
    Edges.replace edge_tbl ((c * n) + a) id;
    let nx = t.nx.(id) and ny = t.ny.(id) and nz = t.nz.(id) in
    let ax = px.(a) and ay = py.(a) and az = pz.(a) in
    let nfound = ref 0 in
    let scan cands =
      for i = 0 to Array.length cands - 1 do
        let q = cands.(i) in
        if (not inserted.(q)) && stamp.(q) <> id then begin
          stamp.(q) <- id;
          if
            (nx *. (px.(q) -. ax))
            +. (ny *. (py.(q) -. ay))
            +. (nz *. (pz.(q) -. az))
            > vol_eps
          then begin
            found.(!nfound) <- q;
            incr nfound;
            push pc_fid id;
            push pc_next pc_head.(q);
            pc_head.(q) <- pc_fid.len - 1
          end
        end
      done
    in
    scan first;
    scan second;
    let k = !nfound in
    t.confl.(id) <- Array.init k (fun i -> found.(k - 1 - i))
  in
  (* initial four facets conflict-tested against every other point *)
  let everyone = Array.init n Fun.id in
  new_facet t0 t1 t2 everyone [||];
  new_facet t0 t1 t3 everyone [||];
  new_facet t0 t2 t3 everyone [||];
  new_facet t1 t2 t3 everyone [||];
  (* --- incremental insertion ------------------------------------- *)
  let visible = { data = Array.make 64 0; len = 0 } in
  let insert p =
    if not inserted.(p) then begin
      inserted.(p) <- true;
      visible.len <- 0;
      let node = ref pc_head.(p) in
      while !node >= 0 do
        let fid = pc_fid.data.(!node) in
        if t.alive.(fid) then push visible fid;
        node := pc_next.data.(!node)
      done;
      (* every visible facet dies first, so [alive] alone tells a
         horizon neighbour from a visible one; p inside the current
         hull (nothing visible) is not a vertex *)
      for i = 0 to visible.len - 1 do
        t.alive.(visible.data.(i)) <- false
      done;
      for i = 0 to visible.len - 1 do
        let fid = visible.data.(i) in
        let try_edge u v =
          match Edges.find edge_tbl ((v * n) + u) with
          | gid when t.alive.(gid) ->
              (* (u,v) is a horizon edge: new facet (u,v,p) *)
              new_facet u v p t.confl.(fid) t.confl.(gid)
          | _ -> ()
          | exception Not_found -> ()
        in
        try_edge t.fa.(fid) t.fb.(fid);
        try_edge t.fb.(fid) t.fc.(fid);
        try_edge t.fc.(fid) t.fa.(fid)
      done
    end
  in
  (* [Array.init] applies its function in index order *)
  Array.init (Array.length prefixes) (fun i ->
      let k = prefixes.(i) in
      while t.size < k do
        insert order.(t.size);
        t.size <- t.size + 1
      done;
      f (if k < tetra_end then None else Some t))

(* One insertion loop for every prefix.  After the first k entries of
   [order] are inserted, the state depends on [order] alone: the
   tetrahedron is the first four independent points of that prefix
   (the same four for every prefix long enough to hold them), and the
   loop body never reads how far it will go.  Capacities do depend on
   the last prefix, but only through [grow], which copies. *)
let map_prefixes ~points ~order ~prefixes f =
  let n = Array.length points in
  Array.iteri
    (fun i k ->
      if k < 4 || k > n || (i > 0 && k <= prefixes.(i - 1)) then
        invalid_arg "Hull3.map_prefixes: need 4 <= k <= n, ascending")
    prefixes;
  let np = Array.length prefixes in
  if np = 0 then [||]
  else
    match find_tetra ~points ~order ~limit:prefixes.(np - 1) with
    | None -> Array.map (fun _ -> f None) prefixes
    | Some (tetra, tetra_end) ->
        run ~points ~order ~prefixes ~tetra ~tetra_end f

let build ~points ~order ~sample_size =
  if sample_size < 4 || sample_size > Array.length points then
    invalid_arg "Hull3.build: need 4 <= sample_size <= n";
  let hulls =
    map_prefixes ~points ~order ~prefixes:[| sample_size |] (function
      | Some t -> t
      | None -> invalid_arg "Hull3.build: degenerate sample (coplanar points)")
  in
  hulls.(0)

let random_order rng n =
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  done;
  order

let sample t = Array.sub t.order 0 t.size
let in_sample t q = t.inserted.(q)

(* An alive facet's conflict array holds no inserted point: inserting
   q kills every facet q was recorded against, and a later facet only
   records uninserted points.  So export copies it as it stands. *)
let export t id =
  {
    a = t.fa.(id);
    b = t.fb.(id);
    c = t.fc.(id);
    normal = Point3.make t.nx.(id) t.ny.(id) t.nz.(id);
    conflicts = Array.copy t.confl.(id);
  }

let export_if t keep =
  let out = ref [] in
  for id = t.count - 1 downto 0 do
    if t.alive.(id) && keep id then out := export t id :: !out
  done;
  Array.of_list !out

let facets t = export_if t (fun _ -> true)
let lower_facets t = export_if t (fun id -> t.nz.(id) < -.vol_eps)

let vertex_ids t =
  let seen = Array.make (Array.length t.inserted) false in
  for id = 0 to t.count - 1 do
    if t.alive.(id) then begin
      seen.(t.fa.(id)) <- true;
      seen.(t.fb.(id)) <- true;
      seen.(t.fc.(id)) <- true
    end
  done;
  List.filter (fun v -> seen.(v)) (List.init (Array.length seen) Fun.id)

let check ~points t =
  let ok = ref true in
  let sample =
    List.filter (fun i -> t.inserted.(i)) (List.init (Array.length points) Fun.id)
  in
  for id = 0 to t.count - 1 do
    if t.alive.(id) then begin
      let sees q =
        Point3.orient3 points.(t.fa.(id)) points.(t.fb.(id)) points.(t.fc.(id))
          points.(q)
        > vol_eps
      in
      (* convexity: no sample point strictly outside *)
      List.iter (fun q -> if sees q then ok := false) sample;
      (* conflicts: exactly the uninserted points strictly outside *)
      let recorded = Array.make (Array.length points) false in
      Array.iter (fun q -> recorded.(q) <- not t.inserted.(q)) t.confl.(id);
      Array.iteri
        (fun q _ ->
          if (not t.inserted.(q)) && sees q <> recorded.(q) then ok := false)
        points
    end
  done;
  !ok

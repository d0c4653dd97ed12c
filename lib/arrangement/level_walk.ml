open Geom

type vertex_kind = Convex | Concave

type event = {
  vertex : Point2.t;
  kind : vertex_kind;
  incoming : int;
  outgoing : int;
}

type level = { edge_lines : int array; vertices : Point2.t array }

(* The walk crosses, at each vertex, the line whose intersection with
   the current edge line has the smallest abscissa strictly beyond the
   current position.  Every line of the arrangement either crosses the
   current line ahead (and is a candidate) or behind (and is excluded
   by the [> x] test), so one pass over the lines finds the next vertex
   exactly — no dynamic envelope is needed (DESIGN.md substitution 2).
   The expected total cost over the §3 construction is O(sum_i nu_i
   N_i) with nu_i the level complexity, which Corollary 2.3 keeps
   near-linear per layer for the random levels the paper picks.

   The scan reads slopes and intercepts from flat float arrays, copied
   once per walk.  [pos.(0)] is the current abscissa: when a crossing
   lies ahead, [pos.(0)] moves to it and the crossing line's id is
   returned, else -1.  The strict [<] keeps the lowest id on a tie.
   The digests in test/test_arrangement.ml pin the walk's output bit
   for bit. *)
let next_crossing slopes icepts ~current pos =
  let after = pos.(0) in
  let s0 = slopes.(current) and c0 = icepts.(current) in
  let best_x = ref infinity and best_id = ref (-1) in
  for m = 0 to Array.length slopes - 1 do
    if m <> current then begin
      let sm = slopes.(m) in
      if sm <> s0 then begin
        let x = (icepts.(m) -. c0) /. (s0 -. sm) in
        if x > after && x < !best_x then begin
          best_x := x;
          best_id := m
        end
      end
    end
  done;
  if !best_id >= 0 then pos.(0) <- !best_x;
  !best_id

let walk ?(on_event = fun _ ~below_after:_ -> ()) ~lines ~k () =
  let n = Array.length lines in
  if k < 0 || k >= n then invalid_arg "Level_walk.walk: need 0 <= k < n";
  (* Order at x = -infinity: larger slope is lower; break slope ties by
     intercept (lower intercept is lower everywhere). *)
  let order = Array.init n Fun.id in
  Array.sort
    (fun i j ->
      let c = Float.compare (Line2.slope lines.(j)) (Line2.slope lines.(i)) in
      if c <> 0 then c
      else Float.compare (Line2.icept lines.(i)) (Line2.icept lines.(j)))
    order;
  (* L^-: ids of the k lines strictly below the current edge. *)
  let minus = Hashtbl.create (2 * (k + 1)) in
  for i = 0 to k - 1 do
    Hashtbl.replace minus order.(i) ()
  done;
  let current = ref order.(k) in
  let edge_lines = Vec.create () and vertices = Vec.create () in
  Vec.push edge_lines !current;
  let slopes = Array.map Line2.slope lines
  and icepts = Array.map Line2.icept lines
  and pos = [| neg_infinity |] in
  let finished = ref false in
  while not !finished do
    match next_crossing slopes icepts ~current:!current pos with
    | -1 -> finished := true
    | g ->
        let vx = pos.(0) in
        let incoming = !current in
        let vertex = Point2.make vx (Line2.eval lines.(incoming) vx) in
        let kind =
          if Hashtbl.mem minus g then begin
            (* g rises through the level: the incoming line dives below
               it, so the vertex is convex (a ∨) *)
            Hashtbl.remove minus g;
            Hashtbl.replace minus incoming ();
            Convex
          end
          else Concave
        in
        current := g;
        Vec.push vertices vertex;
        Vec.push edge_lines g;
        let below_after () =
          Hashtbl.fold (fun id () acc -> id :: acc) minus []
        in
        on_event { vertex; kind; incoming; outgoing = g } ~below_after
  done;
  { edge_lines = Vec.to_array edge_lines; vertices = Vec.to_array vertices }

let complexity level = Array.length level.vertices

let check_level ~lines ~k level =
  let n_edges = Array.length level.edge_lines in
  let n_vertices = Array.length level.vertices in
  if n_edges <> n_vertices + 1 then false
  else begin
    let ok = ref true in
    (* vertices strictly increase in x and lie on both incident lines *)
    for i = 0 to n_vertices - 1 do
      let v = level.vertices.(i) in
      if i > 0 && Point2.x level.vertices.(i - 1) >= Point2.x v then
        ok := false;
      let a = lines.(level.edge_lines.(i))
      and b = lines.(level.edge_lines.(i + 1)) in
      if not (Line2.through_point a v && Line2.through_point b v) then
        ok := false
    done;
    (* sample a point in the interior of each edge and count lines
       strictly below it *)
    let sample i =
      let lo =
        if i = 0 then
          if n_vertices = 0 then 0. else Point2.x level.vertices.(0) -. 10.
        else Point2.x level.vertices.(i - 1)
      and hi =
        if i = n_vertices then
          if n_vertices = 0 then 1.
          else Point2.x level.vertices.(n_vertices - 1) +. 10.
        else Point2.x level.vertices.(i)
      in
      (lo +. hi) /. 2.
    in
    for i = 0 to n_edges - 1 do
      let sx = sample i in
      let p = Point2.make sx (Line2.eval lines.(level.edge_lines.(i)) sx) in
      let below =
        Array.fold_left
          (fun acc l -> if Line2.below_point l p then acc + 1 else acc)
          0 lines
      in
      if below <> k then ok := false
    done;
    !ok
  end

(** Convex polygons in the plane, with halfplane clipping
    (Sutherland–Hodgman restricted to convex input).

    Used to build the faces of the projected 3-D lower envelope: the
    face of plane h is the clip box intersected with the halfplanes
    {h <= h_j} over the envelope neighbours j of h (§4.1). *)

type t = Point2.t array
(** Vertices in counterclockwise order; empty means the empty polygon. *)

let of_box ~xmin ~ymin ~xmax ~ymax : t =
  [|
    Point2.make xmin ymin;
    Point2.make xmax ymin;
    Point2.make xmax ymax;
    Point2.make xmin ymax;
  |]

let vertices (t : t) = t
let is_empty (t : t) = Array.length t = 0

(* Clip by the halfplane {(x,y) | f(x,y) <= 0} where f is affine,
   given as f(x,y) = fa*x + fb*y + fc. *)
let clip_halfplane (t : t) ~fa ~fb ~fc : t =
  let n = Array.length t in
  if n = 0 then [||]
  else begin
    let value p = (fa *. Point2.x p) +. (fb *. Point2.y p) +. fc in
    let out = ref [] in
    for i = 0 to n - 1 do
      let p = t.(i) and q = t.((i + 1) mod n) in
      let vp = value p and vq = value q in
      let crossing () =
        (* intersection of segment pq with {f = 0} *)
        let s = vp /. (vp -. vq) in
        Point2.make
          (Point2.x p +. (s *. (Point2.x q -. Point2.x p)))
          (Point2.y p +. (s *. (Point2.y q -. Point2.y p)))
      in
      if vp <= Eps.eps then begin
        out := p :: !out;
        if vq > Eps.eps && vp < -.Eps.eps then out := crossing () :: !out
      end
      else if vq < -.Eps.eps then out := crossing () :: !out
    done;
    let result = Array.of_list (List.rev !out) in
    if Array.length result < 3 then [||] else result
  end

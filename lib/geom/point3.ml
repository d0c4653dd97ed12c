(** Points in R^3. *)

type t = { x : float; y : float; z : float }

let make x y z = { x; y; z }
let x p = p.x
let y p = p.y
let z p = p.z

let equal p q = Eps.equal p.x q.x && Eps.equal p.y q.y && Eps.equal p.z q.z

let sub p q = { x = p.x -. q.x; y = p.y -. q.y; z = p.z -. q.z }

let cross a b =
  {
    x = (a.y *. b.z) -. (a.z *. b.y);
    y = (a.z *. b.x) -. (a.x *. b.z);
    z = (a.x *. b.y) -. (a.y *. b.x);
  }

let dot a b = (a.x *. b.x) +. (a.y *. b.y) +. (a.z *. b.z)

(* Signed volume of the tetrahedron (a,b,c,d) times 6: positive when d
   is on the positive side of the plane through (a,b,c) oriented by the
   right-hand rule. *)
let orient3 a b c d = dot (cross (sub b a) (sub c a)) (sub d a)

let codec =
  Emio.Codec.map
    ~decode:(fun (x, y, z) -> { x; y; z })
    ~encode:(fun p -> (p.x, p.y, p.z))
    Emio.Codec.(triple float float float)

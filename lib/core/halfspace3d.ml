open Geom

type t = {
  lp : Lowest_planes.t;
  points : Point3.t array; (* id -> original point, for reporting *)
  beta : int;
}

let space_blocks t = Lowest_planes.space_blocks t.lp
let fallbacks t = Lowest_planes.fallbacks t.lp

let log_base b x = log x /. log b

let compute_beta ~block_size n_points =
  let n = float_of_int (max 1 ((n_points + block_size - 1) / block_size)) in
  let b = float_of_int block_size in
  max 1 (int_of_float (ceil (b *. max 1. (log_base b n))))

let build ~stats ~block_size ?(cache_blocks = 0) ?clip points =
  let planes = Array.map Plane3.dual_plane_of_point points in
  let lp = Lowest_planes.build ~stats ~block_size ~cache_blocks ?clip planes in
  { lp; points; beta = compute_beta ~block_size (Array.length points) }

(* §4.2: probe k = beta, 2 beta, 4 beta, ... until one of the k lowest
   dual planes along the vertical line through the dual query point
   lies strictly above it.  The reporter sink absorbs the speculative
   retries: each attempt reports straight into [r] and a failed attempt
   rolls back to the mark, so no intermediate lists are built. *)
let query_ids_into t ~a ~b ~c r =
  let n = Array.length t.points in
  if n = 0 then ()
  else begin
    let threshold = c +. Eps.eps in
    let rec go k =
      let k = min k n in
      let m = Emio.Reporter.mark r in
      let pushed, retrieved =
        Lowest_planes.k_lowest_into t.lp ~x:a ~y:b ~k ~threshold r
      in
      if pushed < retrieved || k >= n then ()
      else begin
        Emio.Reporter.truncate r m;
        go (2 * k)
      end
    in
    go t.beta
  end

let query_ids t ~a ~b ~c =
  let r = Emio.Reporter.create () in
  query_ids_into t ~a ~b ~c r;
  Emio.Reporter.to_list r

let query t ~a ~b ~c =
  List.map (fun id -> t.points.(id)) (query_ids t ~a ~b ~c)

let query_count t ~a ~b ~c =
  let n = Array.length t.points in
  if n = 0 then 0
  else begin
    let threshold = c +. Eps.eps in
    let rec go k =
      let k = min k n in
      let below, retrieved =
        Lowest_planes.k_lowest_count t.lp ~x:a ~y:b ~k ~threshold
      in
      if below < retrieved || k >= n then below else go (2 * k)
    in
    go t.beta
  end

let points t = t.points

(* -- persistence -------------------------------------------------- *)

type portable = {
  hp_lp : Lowest_planes.portable;
  hp_points : Point3.t array;
  hp_beta : int;
}

let to_portable ~embed_payload t =
  {
    hp_lp = Lowest_planes.to_portable ~embed_payload t.lp;
    hp_points = t.points;
    hp_beta = t.beta;
  }

let of_portable ~stats ~backend p =
  {
    lp = Lowest_planes.of_portable ~stats ?backend p.hp_lp;
    points = p.hp_points;
    beta = p.hp_beta;
  }

let portable_codec =
  Emio.Codec.map
    ~decode:(fun (hp_lp, hp_points, hp_beta) -> { hp_lp; hp_points; hp_beta })
    ~encode:(fun p -> (p.hp_lp, p.hp_points, p.hp_beta))
    Emio.Codec.(
      triple Lowest_planes.portable_codec (array Point3.codec) int)

let snapshot =
  Diskstore.Snapshot.format ~kind:"lcsearch.h3" ~version:2 ~codec:portable_codec
    ~payload:(fun t -> Lowest_planes.payload t.lp)
    ~to_skeleton:(to_portable ~embed_payload:false)
    ~of_skeleton:(fun ~stats ~backend ->
      of_portable ~stats ~backend:(Some backend))

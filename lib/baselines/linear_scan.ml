open Geom

type t = { run : Point2.t Emio.Run.t; length : int }

let build ~stats ~block_size ?(cache_blocks = 0) points =
  let store =
    Emio.Store.create ~stats ~block_size ~cache_blocks ~codec:Point2.codec ()
  in
  { run = Emio.Run.of_array store points; length = Array.length points }

(* Direct field access, not the Point2.x/y accessors: under dune's dev
   profile (-opaque) the accessor calls are not inlined and box their
   float result — two allocations per scanned point. *)
let below ~slope ~icept (p : Point2.t) =
  p.Point2.y <= (slope *. p.Point2.x) +. icept +. Eps.eps

(* Run.of_array fills blocks in build order, so the scan position of
   a point is its build-time index: no stored id is needed. *)
let iter_ids run keep r =
  let i = ref 0 in
  Emio.Run.iter
    (fun p ->
      if keep p then Emio.Reporter.add r !i;
      incr i)
    run

let query_ids_into t ~slope ~icept r = iter_ids t.run (below ~slope ~icept) r

let query_halfplane t ~slope ~icept =
  Emio.Run.fold
    (fun acc p -> if below ~slope ~icept p then p :: acc else acc)
    [] t.run

let query_count t ~slope ~icept =
  Emio.Run.fold
    (fun acc p -> if below ~slope ~icept p then acc + 1 else acc)
    0 t.run

let space_blocks t = Emio.Run.block_count t.run

(* The d-dimensional variant: the same Θ(n)-I/O scan over coordinate
   rows.  It is the conformance oracle for every structure the 2-D
   point type cannot feed, and uses the same Partition.Cells predicate
   as the partition trees so boundary tolerance is bit-identical. *)

type d = {
  drun : Partition.Cells.point Emio.Run.t;
  ddim : int;
  dlength : int;
}

let build_d ~stats ~block_size ?(cache_blocks = 0) ~dim points =
  if dim < 2 then invalid_arg "Linear_scan.build_d: need dim >= 2";
  Array.iter
    (fun p ->
      if Array.length p <> dim then
        invalid_arg "Linear_scan.build_d: wrong point dimension")
    points;
  let store =
    Emio.Store.create ~stats ~block_size ~cache_blocks
      ~codec:Partition.Cells.point_codec ()
  in
  {
    drun = Emio.Run.of_array store points;
    ddim = dim;
    dlength = Array.length points;
  }

let query_ids_into_d t ~a0 ~a r =
  let c = Partition.Cells.constr_of_halfspace ~dim:t.ddim ~a0 ~a in
  iter_ids t.drun (Partition.Cells.satisfies c) r

let query_halfspace_d t ~a0 ~a =
  let c = Partition.Cells.constr_of_halfspace ~dim:t.ddim ~a0 ~a in
  List.rev
    (Emio.Run.fold
       (fun acc p -> if Partition.Cells.satisfies c p then p :: acc else acc)
       [] t.drun)

let query_count_d t ~a0 ~a =
  let c = Partition.Cells.constr_of_halfspace ~dim:t.ddim ~a0 ~a in
  Emio.Run.fold
    (fun acc p -> if Partition.Cells.satisfies c p then acc + 1 else acc)
    0 t.drun

let dim_d t = t.ddim
let space_blocks_d t = Emio.Run.block_count t.drun

(* -- persistence: one snapshot kind covers both the 2-D and the
   d-dimensional scan; a skeleton tag picks the payload codec before
   the store is rebuilt from the backend ----------------------------- *)

type any = T2 of t | Td of d

type portable =
  | Scan2_p of { run : int array * int; len : int; bs : int; cb : int }
  | Scand_p of {
      run : int array * int;
      dim : int;
      len : int;
      bs : int;
      cb : int;
    }

let portable_codec =
  let open Emio.Codec in
  map
    ~decode:(fun (tag, run, (dim, len, bs, cb)) ->
      match tag with
      | 0 -> Scan2_p { run; len; bs; cb }
      | 1 -> Scand_p { run; dim; len; bs; cb }
      | t -> raise (Decode (Printf.sprintf "bad scan tag %d" t)))
    ~encode:(function
      | Scan2_p { run; len; bs; cb } -> (0, run, (2, len, bs, cb))
      | Scand_p { run; dim; len; bs; cb } -> (1, run, (dim, len, bs, cb)))
    (triple u8 Emio.Run.portable_codec (quad int int int int))

let to_portable = function
  | T2 t ->
      let store = Emio.Run.store t.run in
      Scan2_p
        {
          run = Emio.Run.to_portable t.run;
          len = t.length;
          bs = Emio.Store.block_size store;
          cb = Emio.Store.cache_blocks store;
        }
  | Td t ->
      let store = Emio.Run.store t.drun in
      Scand_p
        {
          run = Emio.Run.to_portable t.drun;
          dim = t.ddim;
          len = t.dlength;
          bs = Emio.Store.block_size store;
          cb = Emio.Store.cache_blocks store;
        }

let of_portable ~stats ~backend = function
  | Scan2_p { run; len; bs; cb } ->
      let store =
        Emio.Store.of_backend ~stats ~block_size:bs ~cache_blocks:cb
          ~codec:Point2.codec backend
      in
      T2 { run = Emio.Run.of_portable store run; length = len }
  | Scand_p { run; dim; len; bs; cb } ->
      let store =
        Emio.Store.of_backend ~stats ~block_size:bs ~cache_blocks:cb
          ~codec:Partition.Cells.point_codec backend
      in
      Td { drun = Emio.Run.of_portable store run; ddim = dim; dlength = len }

let snapshot =
  let export store =
    (Emio.Store.block_size store, Emio.Store.export_bytes store)
  in
  Diskstore.Snapshot.format ~kind:"lcsearch.scan" ~version:1
    ~codec:portable_codec
    ~payload:(function
      | T2 t -> export (Emio.Run.store t.run)
      | Td t -> export (Emio.Run.store t.drun))
    ~to_skeleton:to_portable ~of_skeleton:of_portable

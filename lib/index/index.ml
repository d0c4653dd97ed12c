(* The structure-agnostic query layer: one first-class-module
   signature that every Table-1 structure and every baseline
   implements, so benches, the CLI, and the tests can treat "an index"
   as a value.  See DESIGN.md "The Index signature". *)

type dataset =
  | Pts2 of Geom.Point2.t array
  | Pts3 of Geom.Point3.t array
  | PtsD of Partition.Cells.point array
      (** d-dimensional points; the dimension is the row length. *)

let dataset_dim = function
  | Pts2 _ -> 2
  | Pts3 _ -> 3
  | PtsD [||] -> invalid_arg "Index.dataset_dim: empty d-dimensional dataset"
  | PtsD pts -> Array.length pts.(0)

let dataset_length = function
  | Pts2 pts -> Array.length pts
  | Pts3 pts -> Array.length pts
  | PtsD pts -> Array.length pts

(* Every structure in the repo answers the paper's query form
   x_d <= a0 + sum_i a_i x_i  (a has d-1 coefficients): a halfplane
   below a line (d=2), a halfspace below a plane (d=3), and so on. *)
type query = { a0 : float; a : float array }

let query_dim q = Array.length q.a + 1

type query_kind = Halfspace | Window

let query_kind_name = function Halfspace -> "halfspace" | Window -> "window"

(* The build parameters every structure takes: the block size B and
   the simulator's main memory M in blocks (0 = no cache).  Each
   Table-1 bound is a function of N, T, B and M alone; the paper's
   other constants (§4's three copies, §6's leaf exponent a, the
   shallow threshold) are fixed inside the structures. *)
type build_params = { block_size : int; cache_blocks : int }

let default_params = { block_size = 64; cache_blocks = 0 }

(* The check every [S.build] makes first: B >= 1 and M >= 0, raised as
   "name.build: ..." like the adapters' other parameter errors. *)
let check_params ~name p =
  if p.block_size < 1 then
    invalid_arg
      (Printf.sprintf "%s.build: block_size must be >= 1 (got %d)" name
         p.block_size);
  if p.cache_blocks < 0 then
    invalid_arg
      (Printf.sprintf "%s.build: cache_blocks must be >= 0 (got %d)" name
         p.cache_blocks)

type 'a snapshot_ops = {
  snapshot_kind : string;
  save : 'a -> path:string -> meta:string -> page_size:int option -> unit;
  load :
    stats:Emio.Io_stats.t ->
    policy:Diskstore.Buffer_pool.policy ->
    cache_pages:int ->
    string ->
    ('a * Diskstore.Snapshot.info, Diskstore.Snapshot.error) result;
}

(* The snapshot operations of an adapter over a native structure with
   a snapshot format: [unwrap] reaches the native value to save,
   [wrap] rebuilds the adapter around a reopened one. *)
let snapshot_of fmt ~wrap ~unwrap =
  {
    snapshot_kind = Diskstore.Snapshot.kind fmt;
    save =
      (fun t ~path ~meta ~page_size ->
        Diskstore.Snapshot.save_as fmt (unwrap t) ~path ~meta ?page_size ());
    load =
      (fun ~stats ~policy ~cache_pages path ->
        Diskstore.Snapshot.open_as fmt ~stats ~policy ~cache_pages path
        |> Result.map (fun (s, info) -> (wrap s, info)));
  }

(* Optional dynamic-update capability.  Static structures leave it
   [None]; the Lsm wrapper provides it for any inner structure via the
   logarithmic method.  Handles are monotonically increasing ints,
   stable across snapshot save/reopen. *)
type 'a update_ops = {
  insert : 'a -> float array -> int;
      (** Add one point (a coordinate row of the build dimension);
          returns a fresh handle usable with [delete].  Raises
          [Invalid_argument] on a wrong-length row. *)
  delete : 'a -> int -> bool;
      (** Tombstone a handle; [false] if unknown or already dead. *)
  live : 'a -> int;  (** Number of live (inserted minus deleted) points. *)
}

module type S = sig
  type t

  val name : string
  (** Registry key, e.g. ["h2"]. *)

  val description : string
  (** One line: which paper section / reference the structure realizes. *)

  val dims : int list
  (** Dimensions the structure accepts. *)

  val kinds : query_kind list
  (** Query kinds the native structure supports.  The generic [query]
      entry point always drives [Halfspace]. *)

  val space_bound : string
  (** Table-1 space bound, e.g. ["O(n)"]. *)

  val query_bound : string
  (** Table-1 query bound, e.g. ["O(log_B n + t)"]. *)

  val preferred : dim:int -> [ `Pts2 | `Pts3 | `PtsD ]
  (** Which dataset variant the benches should generate for this
      structure at dimension [dim]. *)

  val build : params:build_params -> stats:Emio.Io_stats.t -> dataset -> t
  (** Error convention (uniform across every registered structure):
      malformed build parameters — unsupported dimension, a block
      size below 1 or a negative cache ({!check_params}) — raise
      [Invalid_argument] with a ["Structure.build: reason"] message,
      never [Failure].  [Failure] is reserved for I/O-level damage
      (e.g. a corrupt backend read). *)

  val query : t -> query -> float array list
  (** Reported points as coordinate rows (length = dim).  Raises
      [Invalid_argument] if [query_dim] does not match the build
      dimension. *)

  val query_count : t -> query -> int
  (** [List.length (query t q)] without materializing coordinates.  A
      primitive, not derived from [query_into]: some natives count
      without reporting (h3's k-lowest doubling pushes ids and then
      rolls them back). *)

  val query_into : t -> query -> Emio.Reporter.t -> int
  (** Run the query on the zero-allocation path: append the id of
      every answering point — its index in the build-time dataset,
      with multiplicity — to the reporter and return how many were
      appended, which equals [query_count].  Same traversal and I/O
      charge as [query]. *)

  val space_blocks : t -> int

  val counters : t -> (string * int) list
  (** Structure-specific diagnostic gauges (fallbacks, last-query node
      visits, ...) for the benches to print generically. *)

  val snapshot : t snapshot_ops
  (** Persistence: every structure saves to and reopens from a
      snapshot (a single file, or a directory for the Shard and Lsm
      wrappers), so this is part of the contract, not a capability. *)

  val update : t update_ops option
  (** Dynamic-update capability; [None] for the static structures.
      {!Lsm.make} dynamizes any of them behind this same surface. *)
end

(* A built structure packed with its module: the registry's currency. *)
type instance = Instance : (module S with type t = 'a) * 'a -> instance

let build (module M : S) ~params ~stats ds =
  Instance ((module M), M.build ~params ~stats ds)

(* Coordinate rows in and out of a dataset: Lsm's level rows, and the
   rebuild-from-live oracles built from them. *)
let row ds i =
  match ds with
  | Pts2 pts -> [| Geom.Point2.x pts.(i); Geom.Point2.y pts.(i) |]
  | Pts3 pts ->
      [|
        Geom.Point3.x pts.(i); Geom.Point3.y pts.(i); Geom.Point3.z pts.(i);
      |]
  | PtsD pts -> Array.copy pts.(i)

let rows_of_dataset ds = Array.init (dataset_length ds) (row ds)

let dataset_of_rows (module M : S) ~dim rows =
  match M.preferred ~dim with
  | `Pts2 -> Pts2 (Array.map (fun r -> Geom.Point2.make r.(0) r.(1)) rows)
  | `Pts3 ->
      Pts3 (Array.map (fun r -> Geom.Point3.make r.(0) r.(1) r.(2)) rows)
  | `PtsD -> PtsD (Array.map Array.copy rows)

(* Gauges of a wrapper's parts (shards, levels) summed key by key, in
   first-seen key order. *)
let sum_counters parts =
  List.fold_left
    (List.fold_left (fun merged (key, v) ->
         if List.mem_assoc key merged then
           List.map
             (fun (k, w) -> if String.equal k key then (k, w + v) else (k, w))
             merged
         else merged @ [ (key, v) ]))
    [] parts

let structure (Instance ((module M), _)) = (module M : S)
let name (Instance ((module M), _)) = M.name
let query (Instance ((module M), t)) q = M.query t q
let query_count (Instance ((module M), t)) q = M.query_count t q
let query_into (Instance ((module M), t)) q r = M.query_into t q r
let space_blocks (Instance ((module M), t)) = M.space_blocks t
let counters (Instance ((module M), t)) = M.counters t

(* The update capability of a packed instance, with the existential
   closed over: what the CLI's insert/delete/churn verbs drive. *)
type updater = {
  u_insert : float array -> int;
  u_delete : int -> bool;
  u_live : unit -> int;
}

let updater (Instance ((module M), t)) =
  Option.map
    (fun ops ->
      {
        u_insert = (fun row -> ops.insert t row);
        u_delete = (fun h -> ops.delete t h);
        u_live = (fun () -> ops.live t);
      })
    M.update

let snapshot_save (Instance ((module M), t)) ~path ~meta ~page_size =
  M.snapshot.save t ~path ~meta ~page_size

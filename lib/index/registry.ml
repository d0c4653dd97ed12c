(* The central structure registry.  Benches, the CLI and the
   conformance tests iterate this instead of hard-coding per-structure
   dispatch.  It is seeded statically from Builtin.all — a plain value
   reference, so the linker can never drop an adapter. *)

let table : (string, (module Index.S)) Hashtbl.t = Hashtbl.create 16
let order : string list ref = ref []

let register (module M : Index.S) =
  if Hashtbl.mem table M.name then
    invalid_arg (Printf.sprintf "Registry.register: duplicate name %S" M.name);
  Hashtbl.add table M.name (module M : Index.S);
  order := M.name :: !order

let () = List.iter register Builtin.all
let names () = List.rev !order
let find name = Hashtbl.find_opt table name

let find_exn name =
  match find name with
  | Some m -> m
  | None ->
      invalid_arg
        (Printf.sprintf "Registry: unknown structure %S (known: %s)" name
           (String.concat ", " (names ())))

let all () = List.map (fun n -> Hashtbl.find table n) (names ())

(* Structures registered for dimension [dim]. *)
let for_dim dim =
  List.filter (fun (module M : Index.S) -> List.mem dim M.dims) (all ())

(* Capability surface of a registered module, mirrored here so the CLI
   and benches can enumerate what each kind supports without matching
   on the module themselves. *)
type capability = {
  cap_snapshot : string option;
  cap_reports_ids : bool;
  cap_batch_sorted : bool;
  cap_updatable : bool;
}

let capabilities (module M : Index.S) =
  {
    cap_snapshot =
      Option.map (fun ops -> ops.Index.snapshot_kind) M.snapshot;
    cap_reports_ids = M.reports_ids;
    cap_batch_sorted = M.batch_plane_sorted;
    cap_updatable = Option.is_some M.update;
  }

(* The module owning a snapshot [kind] tag, for generic reopening. *)
let find_by_snapshot_kind kind =
  match
    List.find_opt
      (fun (module M : Index.S) ->
        match M.snapshot with
        | Some ops -> String.equal ops.Index.snapshot_kind kind
        | None -> false)
      (all ())
  with
  | Some m -> Ok m
  | None ->
      Error
        (Diskstore.Snapshot.Bad_header
           (Printf.sprintf "no registered structure owns snapshot kind %S"
              kind))

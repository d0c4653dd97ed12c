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

(* The module owning a snapshot [kind] tag, for generic reopening. *)
let find_by_snapshot_kind kind =
  match
    List.find_opt
      (fun (module M : Index.S) ->
        String.equal M.snapshot.Index.snapshot_kind kind)
      (all ())
  with
  | Some m -> Ok m
  | None ->
      Error
        (Diskstore.Snapshot.Bad_header
           (Printf.sprintf "no registered structure owns snapshot kind %S"
              kind))

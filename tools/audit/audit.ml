(* Public-surface audit.  Reads the .cmt/.cmti files under a dune build
   root (run [dune build @check] first) and prints four lists for the
   units under [lib/]:

   1. values declared in a .mli that no other unit references;
   2. such values referenced from [test/] and from no caller;
   3. record fields that no code reads;
   4. optional arguments of .mli values that no other unit passes,
      tagged "(test only)" when only [test/] passes them.

   Callers are units under [lib/], [bin/], [bench/], [examples/] and
   [perfbench/]; tests are units under [test/]; other directories are
   ignored.  A value is identified by its uid: another unit's
   [Texp_ident] carries the uid of the defining .cmti.  A module used
   whole (included, applied to a functor or packed as a first-class
   module) references every value it holds; an alias is not a use,
   since references through it carry the original uids.  A field is
   read by a [Texp_field] or a record pattern in any unit; building a
   record or copying it with [{ r with ... }] is not a read.  A .ml and
   its .mli number their uids separately, so labels are matched by
   (unit, type, field).  An optional argument is passed by an
   application that gives it explicitly; a reference that is not
   applied (a value passed on, or a module used whole) passes all of
   them.

   Usage: audit.exe BUILD_ROOT (e.g. _build/default).  Exits 1 when
   list 1 or list 3 is non-empty or list 4 has an entry not tagged
   "(test only)": a settable value that nothing outside its own module
   sets only ever takes its default. *)

open Typedtree

type kind = Lib | Caller | Test

let kind_of_dir = function
  | "lib" -> Some Lib
  | "bin" | "bench" | "examples" | "perfbench" -> Some Caller
  | "test" -> Some Test
  | _ -> None

(* Every unit below [root] with the kind of its top directory.  Dune's
   per-library alias modules (.ml-gen) alias every module whole and are
   skipped. *)
let units root =
  let rec walk dir =
    Sys.readdir dir |> Array.to_list
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then walk p
           else if
             Filename.check_suffix f ".cmt" || Filename.check_suffix f ".cmti"
           then [ p ]
           else [])
  in
  Sys.readdir root |> Array.to_list
  |> List.concat_map (fun top ->
         match kind_of_dir top with
         | Some k when Sys.is_directory (Filename.concat root top) ->
             List.map (fun p -> (k, p)) (walk (Filename.concat root top))
         | _ -> [])
  |> List.filter_map (fun (k, p) ->
         let c = Cmt_format.read_cmt p in
         match c.cmt_sourcefile with
         | Some s when Filename.check_suffix s ".ml-gen" -> None
         | _ -> Some (k, c))

let unit_of_uid = function
  | Shape.Uid.Item { comp_unit; _ } -> Some comp_unit
  | _ -> None

(* (name, description) of every value of [sg], through nested
   structures; [f] sees each nested structure's name and signature. *)
let rec sig_values ?(f = fun _ _ -> ()) prefix sg =
  List.concat_map
    (function
      | Types.Sig_value (id, vd, _) -> [ (prefix ^ Ident.name id, vd) ]
      | Sig_module (id, _, { md_type = Mty_signature s; _ }, _, _) ->
          let p = prefix ^ Ident.name id in
          f p s;
          sig_values ~f (p ^ ".") s
      | _ -> [])
    sg

let rec optional_args ty =
  match Types.get_desc ty with
  | Tarrow (Optional l, _, r, _) -> l :: optional_args r
  | Tarrow (_, _, r, _) -> optional_args r
  | _ -> []

let () =
  let units = units Sys.argv.(1) in
  let lib_units =
    List.filter_map
      (fun (k, (c : Cmt_format.cmt_infos)) ->
        if k = Lib then Some c.cmt_modname else None)
      units
  in
  (* "Core.Halfspace2d.Sub.x" -> ["Core__Halfspace2d"; "Sub"; "x"] *)
  let rec unit_path = function
    | a :: b :: rest when List.mem (a ^ "__" ^ b) lib_units ->
        unit_path ((a ^ "__" ^ b) :: rest)
    | parts -> parts
  in
  let split p = unit_path (String.split_on_char '.' (Path.name p)) in
  let declared = ref [] (* (unit, (name, desc)) of every .mli value *)
  and modules = Hashtbl.create 64 (* "Unit" or "Unit.Sub" -> uids held *)
  and intfs = Hashtbl.create 64 (* lib units with a .mli *)
  and impl_names = Hashtbl.create 256 (* .ml uid -> name *)
  and labels = Hashtbl.create 256 (* (side, uid) -> (unit, type, field) *)
  and fields = Hashtbl.create 64 (* (unit, type, field) -> loc *) in
  let decls side m =
    let add ?owner ty lds =
      List.iter
        (fun (ld : Types.label_declaration) ->
          let u, ty = Option.value owner ~default:(m, ty) in
          let key = (u, ty, Ident.name ld.ld_id) in
          Hashtbl.replace labels (side, ld.ld_uid) key;
          if owner = None && (side = `Intf || not (Hashtbl.mem fields key))
          then Hashtbl.replace fields key ld.ld_loc)
        lds
    in
    let type_declaration it td =
      (* A re-exported record ([type u = M.t = { ... }]) names the
         fields of [M.t]. *)
      let owner =
        match Option.map Types.get_desc td.typ_type.type_manifest with
        | Some (Tconstr (p, _, _)) -> (
            match List.rev (split p) with
            | [ ty ] -> Some (m, ty)
            | ty :: rest -> Some (String.concat "." (List.rev rest), ty)
            | [] -> None)
        | _ -> None
      in
      (match td.typ_type.type_kind with
      | Type_record (lds, _) -> add ?owner td.typ_name.txt lds
      | Type_variant (cds, _) ->
          List.iter
            (fun (cd : Types.constructor_declaration) ->
              match cd.cd_args with
              | Cstr_record lds ->
                  add (td.typ_name.txt ^ "." ^ Ident.name cd.cd_id) lds
              | Cstr_tuple _ -> ())
            cds
      | _ -> ());
      Tast_iterator.default_iterator.type_declaration it td
    in
    { Tast_iterator.default_iterator with type_declaration }
  in
  List.iter
    (fun (k, (c : Cmt_format.cmt_infos)) ->
      let m = c.cmt_modname in
      match (k, c.cmt_annots) with
      | Lib, Interface s ->
          let it = decls `Intf m in
          it.signature it s;
          Hashtbl.replace intfs m ();
          let uids sg =
            List.map (fun (_, vd) -> vd.Types.val_uid) (sig_values "" sg)
          in
          let f p sg = Hashtbl.replace modules (m ^ "." ^ p) (uids sg) in
          let vs = sig_values ~f "" s.sig_type in
          Hashtbl.replace modules m (uids s.sig_type);
          declared := List.map (fun v -> (m, v)) vs @ !declared
      | Lib, Implementation s ->
          let it = decls `Impl m in
          it.structure it s;
          List.iter
            (fun (n, vd) -> Hashtbl.replace impl_names vd.Types.val_uid n)
            (sig_values "" s.str_type)
      | _ -> ())
    units;
  (* "Core.Halfspace2d.Sub" -> uids held by "Core__Halfspace2d.Sub" *)
  let module_uids p =
    Option.value ~default:[]
      (Hashtbl.find_opt modules (String.concat "." (split p)))
  in
  let refs = Hashtbl.create 1024 and read = Hashtbl.create 256 in
  (* (uid, `Arg label | `All) -> kinds of the other units passing it *)
  let passes = Hashtbl.create 1024 in
  List.iter
    (fun (k, (c : Cmt_format.cmt_infos)) ->
      let m = c.cmt_modname in
      let use uid =
        match unit_of_uid uid with
        | Some u when u = m -> (
            match Hashtbl.find_opt impl_names uid with
            | Some n when k = Lib -> Hashtbl.add refs (`Inside (u, n)) k
            | _ -> ())
        | Some _ -> Hashtbl.add refs (`Uid uid) k
        | None -> ()
      in
      let pass uid arg =
        match unit_of_uid uid with
        | Some u when u <> m -> Hashtbl.add passes (uid, arg) k
        | _ -> ()
      in
      let read_label (l : Types.label_description) =
        let side =
          match unit_of_uid l.lbl_uid with
          | Some u when u <> m && Hashtbl.mem intfs u -> `Intf
          | _ -> `Impl
        in
        Option.iter
          (fun key -> Hashtbl.replace read key ())
          (Hashtbl.find_opt labels (side, l.lbl_uid))
      in
      let use_whole uid =
        use uid;
        pass uid `All
      in
      let rec whole : Types.module_type -> unit = function
        | Mty_signature sg ->
            List.iter
              (fun (_, vd) -> use_whole vd.Types.val_uid)
              (sig_values "" sg)
        | Mty_alias p | Mty_ident p -> List.iter use_whole (module_uids p)
        | Mty_functor (_, r) -> whole r
      in
      let default = Tast_iterator.default_iterator in
      (* The function of the application being visited: the iterator
         reaches it next, and it passes only the arguments given.  An
         omitted optional argument is filled in with a ghost [None]. *)
      let applied = ref None in
      let expr it e =
        (match e.exp_desc with
        | Texp_apply (({ exp_desc = Texp_ident (_, _, vd); _ } as fn), args)
          ->
            applied := Some fn;
            List.iter
              (function
                | ( (Asttypes.Labelled l | Optional l),
                    Some (a : expression) )
                  when not a.exp_loc.loc_ghost ->
                    pass vd.val_uid (`Arg l)
                | _ -> ())
              args
        | Texp_ident (_, _, vd) -> (
            use vd.val_uid;
            match !applied with
            | Some fn when fn == e -> ()
            | _ -> pass vd.val_uid `All)
        | Texp_field (_, _, l) -> read_label l
        | _ -> ());
        default.expr it e
      in
      let pat (type k) it (p : k general_pattern) =
        (match p.pat_desc with
        | Tpat_record (fs, _) -> List.iter (fun (_, l, _) -> read_label l) fs
        | _ -> ());
        default.pat it p
      in
      let module_expr it me =
        (match me.mod_desc with
        | Tmod_ident _ -> whole me.mod_type
        | _ -> ());
        default.module_expr it me
      in
      (* Opening a module is not using it whole, and neither is naming
         it: references through an alias carry the original uids. *)
      let open_declaration it od =
        match od.open_expr.mod_desc with
        | Tmod_ident _ -> ()
        | _ -> default.open_declaration it od
      in
      let module_binding it mb =
        match mb.mb_expr.mod_desc with
        | Tmod_ident _ -> ()
        | _ -> default.module_binding it mb
      in
      let it =
        {
          default with
          expr;
          pat;
          module_expr;
          open_declaration;
          module_binding;
        }
      in
      match c.cmt_annots with Implementation s -> it.structure it s | _ -> ())
    units;
  (* "lib/geom/eps.mli:12", "Eps." ^ name *)
  let line (l : Location.t) name =
    let file = l.loc_start.pos_fname in
    let m = Filename.(remove_extension (basename file)) in
    ( Printf.sprintf "%s:%d" file l.loc_start.pos_lnum,
      String.capitalize_ascii m ^ "." ^ name )
  in
  let list1, list2 =
    List.fold_left
      (fun (l1, l2) (m, (n, { Types.val_uid = uid; val_loc = loc; _ })) ->
        match Hashtbl.find_all refs (`Uid uid) with
        | [] ->
            let inside = Hashtbl.mem refs (`Inside (m, n)) in
            (line loc (n ^ if inside then "  (used inside)" else "") :: l1, l2)
        | ks when List.for_all (( = ) Test) ks -> (l1, line loc n :: l2)
        | _ -> (l1, l2))
      ([], []) !declared
  in
  let list3 =
    Hashtbl.fold
      (fun ((_, ty, f) as key) loc acc ->
        if Hashtbl.mem read key then acc else line loc (ty ^ "." ^ f) :: acc)
      fields []
  in
  (* (entry, passed from test/) *)
  let list4 =
    List.concat_map
      (fun (_, (n, { Types.val_uid = uid; val_loc = loc; val_type; _ })) ->
        List.filter_map
          (fun l ->
            let ks =
              Hashtbl.find_all passes (uid, `All)
              @ Hashtbl.find_all passes (uid, `Arg l)
            in
            if ks = [] then Some (line loc (n ^ " ?" ^ l), false)
            else if List.for_all (( = ) Test) ks then
              Some (line loc (n ^ " ?" ^ l ^ "  (test only)"), true)
            else None)
          (optional_args val_type))
      !declared
  in
  let untagged = List.filter (fun (_, tested) -> not tested) list4 in
  let print title l =
    Printf.printf "== %s (%d)\n" title (List.length l);
    List.iter (fun (p, s) -> Printf.printf "%s  %s\n" p s) (List.sort compare l)
  in
  print "1. lib/ values with no reference outside their own module" list1;
  print "2. lib/ values referenced only from test/" list2;
  print "3. lib/ record fields no code reads" list3;
  print "4. lib/ optional arguments no other unit passes" (List.map fst list4);
  let failing =
    List.filter_map
      (fun (what, n) ->
        if n = 0 then None else Some (Printf.sprintf "%s (%d)" what n))
      [
        ("list 1", List.length list1);
        ("list 3", List.length list3);
        ("untagged list 4", List.length untagged);
      ]
  in
  if failing <> [] then begin
    Printf.printf "== FAIL: %s\n" (String.concat ", " failing);
    exit 1
  end

(* Shared plumbing for directory snapshots (Shard, Lsm): a MANIFEST
   file holding a CRC-prefixed [Emio.Codec.versioned] payload next to
   the inner snapshot files it describes.  The versioned magic string
   doubles as the directory's format tag, so [Snapshot_path] can tell
   Shard and Lsm directories apart by peeking at the first few bytes
   instead of decoding a manifest.  A MANIFEST is replaced atomically
   (temp file, fsync, rename), so a save that dies midway never leaves
   a half-written one; the files it names are rewritten before it and
   are not part of that commit. *)

let manifest_file = "MANIFEST"

let read_file_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      let b = Bytes.create len in
      really_input ic b 0 len;
      b)

(* The CRC a MANIFEST records for one part: a file is CRC'd whole; a
   part that is itself a directory (an Lsm level over a sharded inner)
   records 0, since its own MANIFEST already guards its files. *)
let part_crc path =
  if Sys.is_directory path then 0
  else Diskstore.Crc32.digest (read_file_bytes path)

(* The first step of every directory save: create [dir], or check
   that the existing path is one. *)
let ensure_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    invalid_arg
      (Printf.sprintf "Manifest_dir.ensure_dir: %s exists and is not a directory"
         dir)

let write_manifest dir codec m =
  let payload = Emio.Codec.encode codec m in
  let buf = Buffer.create (Bytes.length payload + 4) in
  Emio.Codec.write_u32 buf (Diskstore.Crc32.digest payload);
  Buffer.add_bytes buf payload;
  Diskstore.Block_file.replace_atomically
    ~path:(Filename.concat dir manifest_file)
    (fun tmp ->
      Out_channel.with_open_bin tmp (fun oc -> Buffer.output_buffer oc buf))

let read_manifest dir codec =
  let path = Filename.concat dir manifest_file in
  if not (Sys.file_exists path) then
    Error (Diskstore.Snapshot.Bad_header "missing MANIFEST")
  else
    match read_file_bytes path with
    | exception Sys_error msg -> Error (Diskstore.Snapshot.Bad_header msg)
    | raw ->
        if Bytes.length raw < 4 then
          Error
            (Diskstore.Snapshot.Truncated
               { expected_bytes = 4; actual_bytes = Bytes.length raw })
        else begin
          let pos = ref 0 in
          let crc = Emio.Codec.read_u32 raw pos in
          let payload = Bytes.sub raw 4 (Bytes.length raw - 4) in
          if Diskstore.Crc32.digest payload <> crc then
            Error (Diskstore.Snapshot.Bad_section_crc { section = "manifest" })
          else
            match Emio.Codec.decode codec payload with
            | m -> Ok m
            | exception Emio.Codec.Decode msg ->
                Error (Diskstore.Snapshot.Bad_payload msg)
        end

(* The one load path of a directory snapshot: reopen the [(file, crc)]
   parts a MANIFEST names, in order, through the inner structure's
   [ops].  The MANIFEST's [inner_kind] must be [ops]'; the buffer pool
   splits evenly over the parts (a disabled pool stays disabled per
   part); each part must exist and match its recorded CRC before the
   inner loader runs.  The combined info takes version, page size and
   block size from the first part and sums blocks and pages; [empty]
   supplies kind and meta, and is the whole info when there are no
   parts. *)
let load_parts (ops : _ Index.snapshot_ops) ~inner_kind ~stats ~policy
    ~cache_pages ~empty dir parts =
  let ( let* ) = Result.bind in
  let* () =
    if String.equal inner_kind ops.snapshot_kind then Ok ()
    else
      Error
        (Diskstore.Snapshot.Kind_mismatch
           { expected = ops.snapshot_kind; got = inner_kind })
  in
  let n = Array.length parts in
  let per_pages =
    if cache_pages = 0 then 0 else max 1 (cache_pages / max 1 n)
  in
  let rec load i acc =
    if i = n then Ok (List.rev acc)
    else begin
      let file, crc = parts.(i) in
      let p = Filename.concat dir file in
      if not (Sys.file_exists p) then Error (Diskstore.Snapshot.Missing_file file)
      else if part_crc p <> crc then
        Error (Diskstore.Snapshot.Bad_section_crc { section = file })
      else
        let* part = ops.load ~stats ~policy ~cache_pages:per_pages p in
        load (i + 1) (part :: acc)
    end
  in
  let* loaded = load 0 [] in
  let info =
    match loaded with
    | [] -> empty
    | (_, first) :: _ ->
        let sum f = List.fold_left (fun acc (_, i) -> acc + f i) 0 loaded in
        {
          empty with
          Diskstore.Snapshot.version = first.Diskstore.Snapshot.version;
          page_size = first.page_size;
          block_size = first.block_size;
          n_blocks = sum (fun i -> i.Diskstore.Snapshot.n_blocks);
          total_pages = sum (fun i -> i.Diskstore.Snapshot.total_pages);
        }
  in
  Ok (Array.of_list (List.map fst loaded), info)

(* The versioned magic of the directory's MANIFEST payload, read
   without CRC verification or decoding: wire layout is
   [u32 crc][u8 magic_len][magic][u32 version][...]. *)
let magic dir =
  let path = Filename.concat dir manifest_file in
  if not (Sys.file_exists path) then None
  else
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let hdr = Bytes.create 5 in
          really_input ic hdr 0 5;
          let len = Char.code (Bytes.get hdr 4) in
          let m = Bytes.create len in
          really_input ic m 0 len;
          Bytes.to_string m)
    with
    | m -> Some m
    | exception (End_of_file | Sys_error _) -> None

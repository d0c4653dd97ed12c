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

let file_crc path = Diskstore.Crc32.digest (read_file_bytes path)

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

(* Snapshot file layout, format v2 (all pages are Block_file pages, so
   every one carries its own length + CRC-32):

     page 0                      header
     pages 1 .. T                block table, 8 bytes per block
                                 (first payload page u32, byte len u32)
     pages 1+T .. T+P            payload: each store block's
                                 codec-encoded bytes over its span of
                                 pages
     pages 1+T+P ..              skeleton: the structure minus its
                                 payload blocks, as a closure-free
                                 Emio.Codec section

   Header payload:
     magic "LCSNAP01" | version u32 | page_size u32 | block_size u32 |
     n_blocks u32 | table_pages u32 | payload_pages u32 | skel_len u32 |
     table_crc u32 | payload_crc u32 | skel_crc u32 |
     kind_len u32 | kind | meta_len u32 | meta

   The magic sits at file offset 8 (after the page header) and the
   version right after it — both at fixed positions independent of page
   size, so a v1 file (same magic, version field 1) is rejected with
   Unsupported_version rather than misparsed.  Beyond the per-page
   CRCs, the header pins a CRC-32 over each whole section (table bytes,
   concatenated payload block bytes in id order, skeleton bytes), so a
   consistent-but-reshuffled file still fails verification. *)

let magic = "LCSNAP01"
let version = 2
let default_page_size = 4096

type error =
  | Bad_magic
  | Unsupported_version of int
  | Bad_header of string
  | Truncated of { expected_bytes : int; actual_bytes : int }
  | Bad_checksum of { page : int }
  | Bad_section_crc of { section : string }
  | Bad_payload of string
  | Kind_mismatch of { expected : string; got : string }
  | Missing_file of string

let pp_error ppf = function
  | Bad_magic -> Format.fprintf ppf "not a snapshot file (bad magic)"
  | Unsupported_version v -> Format.fprintf ppf "unsupported snapshot version %d" v
  | Bad_header msg -> Format.fprintf ppf "malformed snapshot header: %s" msg
  | Truncated { expected_bytes; actual_bytes } ->
      Format.fprintf ppf "truncated snapshot: %d bytes, expected %d"
        actual_bytes expected_bytes
  | Bad_checksum { page } ->
      Format.fprintf ppf "corrupt snapshot: page %d failed CRC check" page
  | Bad_section_crc { section } ->
      Format.fprintf ppf "corrupt snapshot: %s section failed CRC check" section
  | Bad_payload msg -> Format.fprintf ppf "corrupt snapshot payload: %s" msg
  | Kind_mismatch { expected; got } ->
      Format.fprintf ppf "snapshot holds a %S index, expected %S" got expected
  | Missing_file file -> Format.fprintf ppf "missing file %s" file

let error_to_string e = Format.asprintf "%a" pp_error e

type info = {
  kind : string;
  meta : string;
  version : int;
  page_size : int;
  block_size : int;
  n_blocks : int;
  total_pages : int;
}

type opened = {
  info : info;
  skeleton : bytes;
  backend : Emio.Store_intf.backend;
  pool : Buffer_pool.t;
}

let put_u32 buf v =
  Buffer.add_char buf (Char.chr (v land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF))

let get_u32 b pos =
  Char.code (Bytes.get b pos)
  lor (Char.code (Bytes.get b (pos + 1)) lsl 8)
  lor (Char.code (Bytes.get b (pos + 2)) lsl 16)
  lor (Char.code (Bytes.get b (pos + 3)) lsl 24)

let crc_bytes b = Crc32.update 0 b ~pos:0 ~len:(Bytes.length b)

let cap_of ~page_size = page_size - Block_file.header_bytes
let pages_for ~page_size len = max 1 ((len + cap_of ~page_size - 1) / cap_of ~page_size)

let chunked_writes file ~first data =
  let cap = Block_file.payload_capacity file in
  let len = Bytes.length data in
  let np = pages_for ~page_size:(Block_file.page_size file) len in
  for j = 0 to np - 1 do
    Block_file.write_page file (first + j) (Bytes.sub data (j * cap) (min cap (len - j * cap)))
  done;
  np

let save ~path ~kind ~meta ~page_size ~block_size ~payload ~skeleton =
  let blocks = payload in
  let n_blocks = Array.length blocks in
  let cap = cap_of ~page_size in
  let table_bytes = 8 * n_blocks in
  let table_pages = if n_blocks = 0 then 0 else pages_for ~page_size table_bytes in
  (* assign payload spans *)
  let table = Buffer.create (table_bytes + 8) in
  let payload_pages = ref 0 in
  let payload_crc = ref 0 in
  let spans =
    Array.map
      (fun block ->
        let first = !payload_pages in
        let len = Bytes.length block in
        put_u32 table first;
        put_u32 table len;
        payload_crc :=
          Crc32.update !payload_crc block ~pos:0 ~len:(Bytes.length block);
        payload_pages := first + pages_for ~page_size len;
        first)
      blocks
  in
  let table = Buffer.to_bytes table in
  let header = Buffer.create 256 in
  Buffer.add_string header magic;
  put_u32 header version;
  put_u32 header page_size;
  put_u32 header block_size;
  put_u32 header n_blocks;
  put_u32 header table_pages;
  put_u32 header !payload_pages;
  put_u32 header (Bytes.length skeleton);
  put_u32 header (crc_bytes table);
  put_u32 header !payload_crc;
  put_u32 header (crc_bytes skeleton);
  put_u32 header (String.length kind);
  Buffer.add_string header kind;
  put_u32 header (String.length meta);
  Buffer.add_string header meta;
  if Buffer.length header > cap then
    invalid_arg "Snapshot.save: kind/meta too large for one header page";
  Block_file.replace_atomically ~path (fun tmp ->
      let file =
        Block_file.create ~stats:(Emio.Io_stats.create ()) ~path:tmp ~page_size
      in
      Fun.protect
        ~finally:(fun () -> Block_file.close file)
        (fun () ->
          Block_file.write_page file 0 (Buffer.to_bytes header);
          if table_pages > 0 then ignore (chunked_writes file ~first:1 table);
          let payload_base = 1 + table_pages in
          Array.iteri
            (fun i block ->
              ignore
                (chunked_writes file ~first:(payload_base + spans.(i)) block))
            blocks;
          ignore
            (chunked_writes file ~first:(payload_base + !payload_pages)
               skeleton)))

(* Read [len] bytes spanning pages [first ..] through [read]; the pages
   were laid out by [chunked_writes]. *)
let read_span ~page_size ~read ~first len =
  let cap = cap_of ~page_size in
  let out = Bytes.create len in
  let np = pages_for ~page_size len in
  let rec go j =
    if j >= np then Ok out
    else
      match read (first + j) with
      | Error e -> Error e
      | Ok (payload : bytes) ->
          let lo = j * cap in
          Bytes.blit payload 0 out lo (min (Bytes.length payload) (len - lo));
          go (j + 1)
  in
  go 0

let map_read_error = function
  | Block_file.Out_of_range { page; _ } | Block_file.Short_page { page } ->
      Bad_checksum { page }
  | Block_file.Bad_checksum { page } -> Bad_checksum { page }

(* Parse the header without page-size knowledge: read the raw page-0
   prefix, validate magic and CRC by hand, then decode the fields.  A
   path that cannot be opened or sized as a file (missing, unreadable,
   a directory) is a [Bad_header], never an exception. *)
let parse_header path =
  match open_in_bin path with
  | exception Sys_error msg -> Error (Bad_header msg)
  | ic ->
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      match in_channel_length ic with
      | exception Sys_error msg -> Error (Bad_header msg)
      | size ->
      if size < 16 then Error (Truncated { expected_bytes = 16; actual_bytes = size })
      else begin
        let prefix = Bytes.create (min size 65536) in
        really_input ic prefix 0 (Bytes.length prefix);
        if Bytes.sub_string prefix 8 8 <> magic then Error Bad_magic
        else begin
          let len = get_u32 prefix 0 in
          if len < 56 || len > Bytes.length prefix - 8 then
            Error (Bad_header "implausible header length")
          else begin
            (* The page CRC covers the whole page including padding, so
               we need the page size before we can verify.  Decode the
               field tentatively — if it was corrupted, the CRC over
               the wrong span fails and we still reject the file. *)
            let psz = get_u32 prefix 20 in
            if psz < Block_file.min_page_size || psz > 1 lsl 24 then
              Error (Bad_header "implausible page size")
            else if size < psz then
              Error (Truncated { expected_bytes = psz; actual_bytes = size })
            else if len > psz - 8 then
              Error (Bad_header "implausible header length")
            else begin
            let page0 =
              if psz <= Bytes.length prefix then Bytes.sub prefix 0 psz
              else begin
                seek_in ic 0;
                let b = Bytes.create psz in
                really_input ic b 0 psz;
                b
              end
            in
            let crc =
              Crc32.update
                (Crc32.update 0 page0 ~pos:0 ~len:4)
                page0 ~pos:8 ~len:(psz - 8)
            in
            if crc <> get_u32 page0 4 then Error (Bad_checksum { page = 0 })
            else begin
              let p = Bytes.sub prefix 8 len in
              let v = get_u32 p 8 in
              if v <> version then Error (Unsupported_version v)
              else begin
                let page_size = get_u32 p 12 in
                let block_size = get_u32 p 16 in
                let n_blocks = get_u32 p 20 in
                let table_pages = get_u32 p 24 in
                let payload_pages = get_u32 p 28 in
                let skel_len = get_u32 p 32 in
                let table_crc = get_u32 p 36 in
                let payload_crc = get_u32 p 40 in
                let skel_crc = get_u32 p 44 in
                let kind_len = get_u32 p 48 in
                if page_size < Block_file.min_page_size || 52 + kind_len + 4 > len
                then Error (Bad_header "inconsistent field lengths")
                else begin
                  let kind = Bytes.sub_string p 52 kind_len in
                  let meta_len = get_u32 p (52 + kind_len) in
                  if 56 + kind_len + meta_len > len then
                    Error (Bad_header "inconsistent field lengths")
                  else begin
                    let meta = Bytes.sub_string p (56 + kind_len) meta_len in
                    let skel_pages = pages_for ~page_size skel_len in
                    let total_pages =
                      1 + table_pages + payload_pages + skel_pages
                    in
                    Ok
                      ( {
                          kind;
                          meta;
                          version = v;
                          page_size;
                          block_size;
                          n_blocks;
                          total_pages;
                        },
                        (table_pages, payload_pages, skel_len),
                        (table_crc, payload_crc, skel_crc),
                        size )
                  end
                end
              end
            end
            end
          end
        end
      end)

let read_info path =
  match parse_header path with
  | Error _ as e -> e
  | Ok (info, _, _, size) ->
      if size < info.total_pages * info.page_size then
        Error
          (Truncated
             {
               expected_bytes = info.total_pages * info.page_size;
               actual_bytes = size;
             })
      else Ok info

let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v

let load ~path ~stats ?(policy = Buffer_pool.Lru) ?(cache_pages = 64)
    ~expect_kind () =
  let* info, (table_pages, payload_pages, skel_len), crcs, size =
    parse_header path
  in
  let table_crc, payload_crc, skel_crc = crcs in
  let expected_bytes = info.total_pages * info.page_size in
  let* () =
    if size < expected_bytes then
      Error (Truncated { expected_bytes; actual_bytes = size })
    else Ok ()
  in
  let* () =
    if expect_kind <> info.kind then
      Error (Kind_mismatch { expected = expect_kind; got = info.kind })
    else Ok ()
  in
  let file =
    Block_file.open_existing ~stats ~path ~page_size:info.page_size ()
  in
  let result =
    (* Integrity: the table, payload and skeleton reads below cover
       pages 1 .. total_pages-1 exactly once, in ascending order (the
       layout check proves the sections tile the file), and every page
       read verifies its checksum — so corruption is a typed load
       error, reported at its lowest damaged page, never a mid-query
       exception. *)
    let read page = Block_file.read_page file page in
    let read_span ~first len =
      match read_span ~page_size:info.page_size ~read ~first len with
      | Error e -> Error (map_read_error e)
      | Ok raw -> Ok raw
    in
    let* table =
      if info.n_blocks = 0 then Ok [||]
      else
        let* raw = read_span ~first:1 (8 * info.n_blocks) in
        let* () =
          if crc_bytes raw <> table_crc then
            Error (Bad_section_crc { section = "block table" })
          else Ok ()
        in
        Ok
          (Array.init info.n_blocks (fun i ->
               (get_u32 raw (8 * i), get_u32 raw ((8 * i) + 4))))
    in
    let payload_base = 1 + table_pages in
    let* () =
      let span len = pages_for ~page_size:info.page_size len in
      let table_fits =
        table_pages = if info.n_blocks = 0 then 0 else span (8 * info.n_blocks)
      in
      (* payload spans follow one another in id order *)
      let tiled =
        Array.fold_left
          (fun next (first, len) -> if next = first then next + span len else -1)
          0 table
      in
      if table_fits && tiled = payload_pages then Ok ()
      else Error (Bad_header "sections do not tile the file")
    in
    (* section CRC over the payload blocks' bytes, in id order — this
       also proves every block span decodes from its pages.  A
       resident reopen keeps the bytes: they become the backend's
       in-memory payloads, with no second pass over the file. *)
    let payloads =
      if File_backend.resident_on_reopen () then
        Some (Array.make info.n_blocks Bytes.empty)
      else None
    in
    let* got_payload_crc =
      let n = Array.length table in
      let rec go i acc =
        if i >= n then Ok acc
        else
          let first, len = table.(i) in
          let* raw = read_span ~first:(payload_base + first) len in
          Option.iter (fun p -> p.(i) <- raw) payloads;
          go (i + 1) (Crc32.update acc raw ~pos:0 ~len:(Bytes.length raw))
      in
      go 0 0
    in
    let* () =
      if got_payload_crc <> payload_crc then
        Error (Bad_section_crc { section = "payload" })
      else Ok ()
    in
    let* skeleton = read_span ~first:(payload_base + payload_pages) skel_len in
    let* () =
      if crc_bytes skeleton <> skel_crc then
        Error (Bad_section_crc { section = "skeleton" })
      else Ok ()
    in
    let pool = Buffer_pool.create ~file ~policy ~capacity:cache_pages in
    let fb = File_backend.of_table ~base_page:payload_base ?payloads ~table pool in
    Ok { info; skeleton; backend = File_backend.backend fb; pool }
  in
  (match result with Error _ -> Block_file.close file | Ok _ -> ());
  result

(* -- typed formats ------------------------------------------------ *)

type 'a format =
  | Fmt : {
      kind : string;
      codec : 's Emio.Codec.t;
      payload : 'a -> int * bytes array;
      to_skeleton : 'a -> 's;
      of_skeleton :
        stats:Emio.Io_stats.t -> backend:Emio.Store_intf.backend -> 's -> 'a;
    }
      -> 'a format

(* The skeleton section names its own kind and version, so a skeleton
   decoded under the wrong format or an older layout is a clean
   [Codec.Decode]. *)
let format ~kind ~version ~codec ~payload ~to_skeleton ~of_skeleton =
  let codec = Emio.Codec.versioned ~magic:kind ~version codec in
  Fmt { kind; codec; payload; to_skeleton; of_skeleton }

let kind (Fmt f) = f.kind

let save_as (Fmt f) t ~path ?(meta = "") ?(page_size = default_page_size) () =
  let block_size, payload = f.payload t in
  save ~path ~kind:f.kind ~meta ~page_size ~block_size ~payload
    ~skeleton:(Emio.Codec.encode f.codec (f.to_skeleton t))

(* The one place a loaded file becomes a structure.  Decoding and
   reconstruction run on checksummed but untrusted bytes, so the
   exceptions they can raise on a corrupt-yet-CRC-valid skeleton become
   [Bad_payload]; on any error the file is closed here (a loaded
   structure's lifetime otherwise owns it). *)
let open_as (Fmt f) ~stats ?policy ?cache_pages path =
  let* o = load ~path ~stats ?policy ?cache_pages ~expect_kind:f.kind () in
  match
    f.of_skeleton ~stats ~backend:o.backend
      (Emio.Codec.decode f.codec o.skeleton)
  with
  | t -> Ok (t, o.info)
  | exception
      (Emio.Codec.Decode msg | Invalid_argument msg | Failure msg) ->
      Block_file.close (Buffer_pool.file o.pool);
      Error (Bad_payload msg)

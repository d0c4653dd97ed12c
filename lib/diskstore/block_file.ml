(* Fixed-size page I/O over a Unix file descriptor.

   On-disk page layout (little-endian):
     bytes 0..3   payload length (u32)
     bytes 4..7   CRC-32 over the whole page except this field
                  (length field + payload + zero padding), so any
                  single-byte corruption anywhere in a page is caught
     bytes 8..    payload, zero-padded to [page_size]

   Page [i] lives at byte offset [i * page_size].  Reads validate the
   checksum and report corruption or truncation as a typed error.
   Physical I/O (one page per read/write, plus bytes read) is recorded
   in the attached Io_stats. *)

let header_bytes = 8

type t = {
  fd : Unix.file_descr;
  path : string;
  page_size : int;
  stats : Emio.Io_stats.t;
  mutable pages : int;
  mutable closed : bool;
}

type read_error =
  | Out_of_range of { page : int; pages : int }
  | Short_page of { page : int }
  | Bad_checksum of { page : int }

let pp_read_error ppf = function
  | Out_of_range { page; pages } ->
      Format.fprintf ppf "page %d out of range (file has %d pages)" page pages
  | Short_page { page } -> Format.fprintf ppf "page %d truncated" page
  | Bad_checksum { page } -> Format.fprintf ppf "page %d failed CRC check" page

let min_page_size = 64

let check_page_size page_size =
  if page_size < min_page_size then
    invalid_arg "Block_file: page_size must be >= 64"

let create ~stats ~path ~page_size =
  check_page_size page_size;
  let fd = Unix.openfile path [ O_RDWR; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  { fd; path; page_size; stats; pages = 0; closed = false }

let open_existing ~stats ~path ~page_size () =
  check_page_size page_size;
  let fd = Unix.openfile path [ O_RDONLY; O_CLOEXEC ] 0 in
  let size = (Unix.fstat fd).st_size in
  (* a trailing partial page is readable territory for the caller to
     reject as Short_page, so round up *)
  let pages = (size + page_size - 1) / page_size in
  { fd; path; page_size; stats; pages; closed = false }

let path t = t.path
let page_size t = t.page_size
let payload_capacity t = t.page_size - header_bytes
let pages t = t.pages
let stats t = t.stats

let check_open t =
  if t.closed then invalid_arg "Block_file: file is closed"

let put_u32 b pos v =
  Bytes.set b pos (Char.chr (v land 0xFF));
  Bytes.set b (pos + 1) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b (pos + 2) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set b (pos + 3) (Char.chr ((v lsr 24) land 0xFF))

let get_u32 b pos =
  Char.code (Bytes.get b pos)
  lor (Char.code (Bytes.get b (pos + 1)) lsl 8)
  lor (Char.code (Bytes.get b (pos + 2)) lsl 16)
  lor (Char.code (Bytes.get b (pos + 3)) lsl 24)

let pwrite_all t buf off =
  ignore (Unix.lseek t.fd off SEEK_SET);
  let len = Bytes.length buf in
  let written = ref 0 in
  while !written < len do
    written :=
      !written + Unix.write t.fd buf !written (len - !written)
  done

(* Returns bytes actually read (may be short at EOF). *)
let pread t buf off =
  ignore (Unix.lseek t.fd off SEEK_SET);
  let len = Bytes.length buf in
  let got = ref 0 and eof = ref false in
  while (not !eof) && !got < len do
    let n = Unix.read t.fd buf !got (len - !got) in
    if n = 0 then eof := true else got := !got + n
  done;
  !got

let write_page t page payload =
  check_open t;
  if page < 0 then invalid_arg "Block_file.write_page: negative page";
  let len = Bytes.length payload in
  if len > payload_capacity t then
    invalid_arg "Block_file.write_page: payload exceeds page capacity";
  let buf = Bytes.make t.page_size '\000' in
  put_u32 buf 0 len;
  Bytes.blit payload 0 buf header_bytes len;
  let crc =
    Crc32.update (Crc32.update 0 buf ~pos:0 ~len:4) buf ~pos:header_bytes
      ~len:(t.page_size - header_bytes)
  in
  put_u32 buf 4 crc;
  pwrite_all t buf (page * t.page_size);
  if page >= t.pages then t.pages <- page + 1;
  Emio.Io_stats.record_write t.stats

let read_page t page =
  check_open t;
  if page < 0 || page >= t.pages then
    Error (Out_of_range { page; pages = t.pages })
  else begin
    let buf = Bytes.create t.page_size in
    let got = pread t buf (page * t.page_size) in
    Emio.Io_stats.record_read t.stats;
    Emio.Io_stats.record_bytes_read t.stats got;
    if got < t.page_size then Error (Short_page { page })
    else begin
      let len = get_u32 buf 0 in
      if len > payload_capacity t then Error (Bad_checksum { page })
      else begin
        let crc =
          Crc32.update (Crc32.update 0 buf ~pos:0 ~len:4) buf
            ~pos:header_bytes ~len:(t.page_size - header_bytes)
        in
        if crc <> get_u32 buf 4 then Error (Bad_checksum { page })
        else Ok (Bytes.sub buf header_bytes len)
      end
    end
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    Unix.close t.fd
  end

let fsync_path path =
  let fd = Unix.openfile path [ O_RDONLY; O_CLOEXEC ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

let replace_atomically ~path write =
  let tmp = path ^ ".tmp" in
  (match
     write tmp;
     fsync_path tmp
   with
  | () -> ()
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e);
  Unix.rename tmp path;
  (* make the rename itself durable; a filesystem that cannot fsync a
     directory still gets the atomic rename *)
  try fsync_path (Filename.dirname path)
  with Unix.Unix_error (EINVAL, _, _) -> ()

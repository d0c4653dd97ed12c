(* The byte-level Store backend over a real file: each logical block
   (a marshalled 'a array handed over by Emio.Store) occupies a span of
   consecutive checksummed pages, accessed through the buffer pool.
   The block table (block id -> first page, byte length) lives in
   memory and is persisted by Snapshot alongside the pages. *)

type t = {
  pool : Buffer_pool.t;
  base_page : int; (* pages below this belong to the snapshot envelope *)
  mutable table : (int * int) array; (* id -> (first page - base, bytes) *)
  mutable n_blocks : int;
  mutable next_page : int; (* next free page, relative to base *)
  mutable resident : bytes array option;
      (* payloads handed over at reopen (see [of_table]), held only
         until a store takes them ([take_resident]) *)
}

(* When set, every snapshot reopen ([Snapshot.open_as]) hands the payload
   bytes it verified to [of_table] — the switch `lcsearch serve` flips
   before reopening snapshots so queries can fan out across domains. *)
let resident_switch = ref false
let set_resident_on_reopen b = resident_switch := b
let resident_on_reopen () = !resident_switch

let capacity t = Block_file.payload_capacity (Buffer_pool.file t.pool)

let span_pages t len = max 1 ((len + capacity t - 1) / capacity t)

let create ?(base_page = 0) pool =
  {
    pool;
    base_page;
    table = Array.make 16 (0, 0);
    n_blocks = 0;
    next_page = 0;
    resident = None;
  }

let name t = "file:" ^ Block_file.path (Buffer_pool.file t.pool)
let blocks_used t = t.n_blocks

let write_span t ~first data =
  let cap = capacity t in
  let len = Bytes.length data in
  let np = span_pages t len in
  for j = 0 to np - 1 do
    let lo = j * cap in
    let chunk = Bytes.sub data lo (min cap (len - lo)) in
    Buffer_pool.write_page t.pool (t.base_page + first + j) chunk
  done

let grow t =
  let cap = Array.length t.table in
  if t.n_blocks >= cap then begin
    let bigger = Array.make (2 * cap) (0, 0) in
    Array.blit t.table 0 bigger 0 cap;
    t.table <- bigger
  end

let alloc t data =
  grow t;
  let id = t.n_blocks in
  let first = t.next_page in
  write_span t ~first data;
  t.table.(id) <- (first, Bytes.length data);
  t.n_blocks <- t.n_blocks + 1;
  t.next_page <- first + span_pages t (Bytes.length data);
  id

let read_via_pool t id =
  let first, len = t.table.(id) in
  let cap = capacity t in
  let out = Bytes.create len in
  let np = span_pages t len in
  for j = 0 to np - 1 do
    match Buffer_pool.read_page t.pool (t.base_page + first + j) with
    | Ok payload ->
        let lo = j * cap in
        Bytes.blit payload 0 out lo (min (Bytes.length payload) (len - lo))
    | Error e ->
        failwith
          (Format.asprintf "File_backend.read (%s): %a" (name t)
             Block_file.pp_read_error e)
  done;
  out

let check_id t op id =
  if id < 0 || id >= t.n_blocks then
    invalid_arg ("File_backend." ^ op ^ ": bad block id")

(* What a cold pool fetch of block [id] faults: one read per page of
   its span.  A resident read charges exactly this and touches no
   cache state, so per-query cost words stay deterministic regardless
   of concurrency or arrival order. *)
let charge_read t id =
  check_id t "charge_read" id;
  let _, len = t.table.(id) in
  let stats = Buffer_pool.stats t.pool in
  for _ = 1 to span_pages t len do
    Emio.Io_stats.record_read stats
  done

let read t id =
  check_id t "read" id;
  read_via_pool t id

let take_resident t =
  let payloads = t.resident in
  t.resident <- None;
  payloads

let of_table ?(base_page = 0) ?payloads ~table pool =
  let b =
    {
      pool;
      base_page;
      table = (if Array.length table = 0 then Array.make 16 (0, 0) else Array.copy table);
      n_blocks = Array.length table;
      next_page = 0;
      resident = payloads;
    }
  in
  Array.iter
    (fun (first, len) ->
      b.next_page <- max b.next_page (first + span_pages b len))
    table;
  b

let drop_cache t = Buffer_pool.drop t.pool

module Backend_impl = struct
  type nonrec t = t

  let name = name
  let alloc = alloc
  let read = read
  let take_resident = take_resident
  let charge_read = charge_read
  let blocks_used = blocks_used
  let drop_cache = drop_cache
end

let backend t = Emio.Store_intf.Backend ((module Backend_impl), t)

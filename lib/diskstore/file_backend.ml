(* The byte-level Store backend over a snapshot file: each logical
   block (a codec-encoded 'a array) occupies a span of consecutive
   checksummed pages, read through the buffer pool.  The block table
   (block id -> first page, byte length) was read from the snapshot by
   Snapshot.load and never changes: the backend is read-only. *)

type t = {
  pool : Buffer_pool.t;
  base_page : int; (* pages below this belong to the snapshot envelope *)
  table : (int * int) array; (* id -> (first page - base, bytes) *)
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

let blocks_used t = Array.length t.table

(* Block ids come from Emio.Store, which rejects a bad one before it
   reaches the backend. *)
let read t id =
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
          (Format.asprintf "File_backend.read (file:%s): %a"
             (Block_file.path (Buffer_pool.file t.pool))
             Block_file.pp_read_error e)
  done;
  out

(* What a cold pool fetch of block [id] faults: one read per page of
   its span.  A resident read charges exactly this and touches no
   cache state, so per-query cost words stay deterministic regardless
   of concurrency or arrival order. *)
let charge_read t id =
  let _, len = t.table.(id) in
  let stats = Buffer_pool.stats t.pool in
  for _ = 1 to span_pages t len do
    Emio.Io_stats.record_read stats
  done

let take_resident t =
  let payloads = t.resident in
  t.resident <- None;
  payloads

let of_table ?(base_page = 0) ?payloads ~table pool =
  { pool; base_page; table; resident = payloads }

let drop_cache t = Buffer_pool.drop t.pool

module Backend_impl = struct
  type nonrec t = t

  let read = read
  let take_resident = take_resident
  let charge_read = charge_read
  let blocks_used = blocks_used
  let drop_cache = drop_cache
end

let backend t = Emio.Store_intf.Backend ((module Backend_impl), t)

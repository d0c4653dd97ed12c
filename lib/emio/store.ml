type 'a mem = { mutable blocks : 'a array array; mutable used : int }

type 'a ext = {
  backend : Store_intf.backend;
  mutable allocated : int;
  resident : 'a mem option;
      (* over a resident backend: every block, decoded once by
         [of_backend].  Immutable while the structure is read-only, so
         domains share it; a read returns the block itself and charges
         what the backend's own read would. *)
}

type 'a state = Mem of 'a mem | Ext of 'a ext

(* The simulator's main memory of [cache_blocks] blocks is per-domain:
   each domain owns a private LRU of the full capacity behind a
   [Domain.DLS] key, created on that domain's first access, so a
   parallel batch never races on one [Lru].  A single-domain process
   sees one shared cache.  [lru] is [None] when there is no cache to
   model: at capacity 0, and over an external backend, which keeps no
   cache of its own (the buffer pool caches non-resident pages and a
   resident store decodes every block once). *)
type 'a t = {
  stats : Io_stats.t;
  block_size : int;
  mutable state : 'a state;
  cache_blocks : int;
  lru : Lru.t Domain.DLS.key option;
  (* block codec = Codec.array of the element codec: the wire format of
     one payload block.  Required in external mode; in simulator mode
     it is only consulted by {!export_bytes}. *)
  codec : 'a array Codec.t option;
}

let block_codec t op =
  match t.codec with
  | Some c -> c
  | None -> invalid_arg ("Store." ^ op ^ ": store has no codec")

let create ~stats ~block_size ?(cache_blocks = 0) ?codec ?backend () =
  if block_size <= 0 then invalid_arg "Store.create: block_size must be > 0";
  if cache_blocks < 0 then
    invalid_arg "Store.create: cache_blocks must be >= 0";
  let codec = Option.map Codec.array codec in
  let state =
    match backend with
    | None -> Mem { blocks = Array.make 16 [||]; used = 0 }
    | Some backend ->
        if codec = None then
          invalid_arg "Store.create: an external backend requires a codec";
        Ext { backend; allocated = 0; resident = None }
  in
  let lru =
    match state with
    | Mem _ when cache_blocks > 0 ->
        Some (Domain.DLS.new_key (fun () -> Lru.create ~capacity:cache_blocks))
    | Mem _ | Ext _ -> None
  in
  { stats; block_size; state; cache_blocks; lru; codec }

let block_size t = t.block_size
let cache_blocks t = t.cache_blocks

let blocks_used t =
  match t.state with Mem m -> m.used | Ext e -> e.allocated

let is_external t = match t.state with Mem _ -> false | Ext _ -> true

let grow m =
  let capacity = Array.length m.blocks in
  if m.used >= capacity then begin
    let bigger = Array.make (2 * capacity) [||] in
    Array.blit m.blocks 0 bigger 0 capacity;
    m.blocks <- bigger
  end

let check_block t data =
  if Array.length data > t.block_size then
    invalid_arg "Store: block larger than block_size"

(* This domain's LRU-touch: false (a charged miss) when there is no
   cache, without ever resolving a domain-local slot. *)
let touch_cache t id =
  match t.lru with
  | None -> false
  | Some key -> Lru.touch (Domain.DLS.get key) id

let alloc t data =
  check_block t data;
  match t.state with
  | Mem m ->
      grow m;
      let id = m.used in
      m.blocks.(id) <- data;
      m.used <- m.used + 1;
      let hit = touch_cache t id in
      let traced =
        if hit then Io_stats.record_hit_traced t.stats
        else Io_stats.record_write_traced t.stats
      in
      if traced then Cost_ctx.emit Block_write;
      id
  | Ext ({ backend = Store_intf.Backend ((module B), b); _ } as e) ->
      let codec = block_codec t "alloc" in
      let bytes = Codec.encode codec data in
      let id = B.alloc b bytes in
      e.allocated <- e.allocated + 1;
      (match e.resident with
      | Some m ->
          (* store the decoded bytes, as a non-resident read would
             return them — never the caller's array *)
          assert (id = m.used);
          grow m;
          m.blocks.(id) <- Codec.decode codec bytes;
          m.used <- m.used + 1
      | None -> ());
      if Cost_ctx.tracing () then Cost_ctx.emit Block_write;
      id

(* An external read: the resident block itself, charged as the
   backend's own read would be, or the backend's bytes decoded. *)
let fetch t e id =
  let (Store_intf.Backend ((module B), b)) = e.backend in
  match e.resident with
  | Some m ->
      if id < 0 || id >= m.used then invalid_arg "Store.read: bad block id";
      B.charge_read b id;
      m.blocks.(id)
  | None -> Codec.decode (block_codec t "read") (B.read b id)

let read (t : 'a t) id : 'a array =
  match t.state with
  | Mem m ->
      if id < 0 || id >= m.used then invalid_arg "Store.read: bad block id";
      let hit = touch_cache t id in
      let traced =
        if hit then Io_stats.record_hit_traced t.stats
        else Io_stats.record_read_traced t.stats
      in
      if traced then Cost_ctx.emit (Block_read { hit });
      m.blocks.(id)
  | Ext e ->
      if Cost_ctx.tracing () then Cost_ctx.emit (Block_read { hit = false });
      fetch t e id

let drop_cache t =
  match t.state with
  | Mem _ ->
      (* only the calling domain's cache: another domain's LRU is
         reachable only from that domain *)
      Option.iter (fun key -> Lru.clear (Domain.DLS.get key)) t.lru
  | Ext { backend = Store_intf.Backend ((module B), b); _ } -> B.drop_cache b

let export_bytes t =
  match t.state with
  | Mem m ->
      let codec = block_codec t "export_bytes" in
      Array.init m.used (fun i -> Codec.encode codec m.blocks.(i))
  | Ext { backend = Store_intf.Backend ((module B), b); _ } ->
      Array.init (B.blocks_used b) (fun i -> B.read b i)

let to_blocks t =
  match t.state with
  | Mem m -> Array.sub m.blocks 0 m.used
  | Ext _ -> invalid_arg "Store.to_blocks: external store"

let of_blocks ~stats ~block_size ?(cache_blocks = 0) ?codec blocks =
  let t = create ~stats ~block_size ~cache_blocks ?codec () in
  (match t.state with
  | Mem m ->
      Array.iter
        (fun b ->
          if Array.length b > block_size then
            raise (Codec.Decode "Store.of_blocks: block larger than block_size"))
        blocks;
      m.blocks <- (if Array.length blocks = 0 then Array.make 16 [||] else Array.copy blocks);
      m.used <- Array.length blocks
  | Ext _ -> assert false);
  t

let of_backend ~stats ~block_size ?(cache_blocks = 0) ~codec backend =
  let t = create ~stats ~block_size ~cache_blocks ~codec ~backend () in
  let (Store_intf.Backend ((module B), b)) = backend in
  (* decode a resident backend's blocks here, once, before any query
     (or domain fan-out) can read them *)
  let resident =
    Option.map
      (fun payloads ->
        let blocks = Array.map (Codec.decode (block_codec t "of_backend")) payloads in
        {
          blocks = (if Array.length blocks = 0 then Array.make 16 [||] else blocks);
          used = Array.length blocks;
        })
      (B.take_resident b)
  in
  { t with state = Ext { backend; allocated = B.blocks_used b; resident } }

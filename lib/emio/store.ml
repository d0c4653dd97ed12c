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

(* Block caches are per-domain: each domain of a parallel batch owns a
   private LRU (plus, for external stores, the decoded-payload table
   keyed by the ids resident in that LRU), living behind a [Domain.DLS] key.
   A single-domain process sees exactly the old shared-cache
   behaviour — the main domain's cache IS the store's cache — while
   parallel batches stop serializing (and racing) on one Lru/Hashtbl.
   The configured [cache_blocks] capacity is split across domains when
   the batch engine announces its fan-out ({!with_cache_split}), so a
   parallel run models the same total main memory as a sequential
   one. *)
type 'a cache = { lru : Lru.t; decoded : (int, 'a array) Hashtbl.t }

type 'a t = {
  mutable stats : Io_stats.t;
  block_size : int;
  mutable state : 'a state;
  cache_capacity : int;  (* configured cache_blocks, pre-split *)
  dcache : 'a cache Domain.DLS.key;
  (* block codec = Codec.array of the element codec: the wire format of
     one payload block.  Required in external mode; in simulator mode
     it is only consulted by {!export_bytes}. *)
  codec : 'a array Codec.t option;
}

(* How many ways to split a store's [cache_blocks] across domains.
   1 outside parallel batches, so caches created by sequential code
   (in particular the main domain's, created on first touch) always
   get the full configured capacity.  Worker domains first touch a
   store from inside Par.run, under [with_cache_split ~domains]. *)
let cache_split = Atomic.make 1

let with_cache_split ?(shards = 1) ~domains f =
  let prev = Atomic.exchange cache_split (max 1 shards * max 1 domains) in
  Fun.protect ~finally:(fun () -> Atomic.set cache_split prev) f

let domain_cache_key capacity =
  Domain.DLS.new_key (fun () ->
      let capacity = max 1 (capacity / Atomic.get cache_split) in
      { lru = Lru.create ~capacity; decoded = Hashtbl.create 16 })

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
  let dcache =
    if cache_blocks = 0 then
      (* never consulted (every cache probe is guarded by the
         capacity); one shared empty cache keeps the key total down *)
      Domain.DLS.new_key (fun () ->
          { lru = Lru.create ~capacity:0; decoded = Hashtbl.create 1 })
    else domain_cache_key cache_blocks
  in
  { stats; block_size; state; cache_capacity = cache_blocks; dcache; codec }

let block_size t = t.block_size
let stats t = t.stats
let cache_blocks t = t.cache_capacity

let blocks_used t =
  match t.state with Mem m -> m.used | Ext e -> e.allocated

let is_external t = match t.state with Mem _ -> false | Ext _ -> true
let backend t = match t.state with Mem _ -> None | Ext e -> Some e.backend

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

(* This domain's LRU-touch: false (a charged miss) when caching is
   disabled, without ever resolving the domain-local slot. *)
let touch_cache t id =
  t.cache_capacity > 0 && Lru.touch (Domain.DLS.get t.dcache).lru id

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
      if traced then Cost_ctx.emit (Block_write { id; hit });
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
      if Cost_ctx.tracing () then Cost_ctx.emit (Block_write { id; hit = false });
      id

(* The charged fetch behind an external read (a miss): the resident
   block itself, or the backend's bytes decoded. *)
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
      if traced then Cost_ctx.emit (Block_read { id; hit });
      m.blocks.(id)
  | Ext e ->
      if t.cache_capacity = 0 then begin
        if Cost_ctx.tracing () then
          Cost_ctx.emit (Block_read { id; hit = false });
        fetch t e id
      end
      else begin
        let dc = Domain.DLS.get t.dcache in
        let in_lru, evicted = Lru.touch_report dc.lru id in
        (match evicted with
        | Some victim -> Hashtbl.remove dc.decoded victim
        | None -> ());
        match (if in_lru then Hashtbl.find_opt dc.decoded id else None) with
        | Some data ->
            if Cost_ctx.tracing () then
              Cost_ctx.emit (Block_read { id; hit = true });
            data
        | None ->
            if Cost_ctx.tracing () then
              Cost_ctx.emit (Block_read { id; hit = false });
            let data = fetch t e id in
            Hashtbl.replace dc.decoded id data;
            data
      end

let write t id data =
  check_block t data;
  match t.state with
  | Mem m ->
      if id < 0 || id >= m.used then invalid_arg "Store.write: bad block id";
      m.blocks.(id) <- data;
      let hit = touch_cache t id in
      let traced =
        if hit then Io_stats.record_hit_traced t.stats
        else Io_stats.record_write_traced t.stats
      in
      if traced then Cost_ctx.emit (Block_write { id; hit })
  | Ext ({ backend = Store_intf.Backend ((module B), b); _ } as e) ->
      if Cost_ctx.tracing () then Cost_ctx.emit (Block_write { id; hit = false });
      (* invalidate rather than update: caching the caller's array
         would alias memory the caller may mutate after the write.
         Only this domain's decoded copy is dropped — parallel batches
         are read-only by contract, so cross-domain copies cannot be
         stale while another domain is querying. *)
      if t.cache_capacity > 0 then
        Hashtbl.remove (Domain.DLS.get t.dcache).decoded id;
      let codec = block_codec t "write" in
      let bytes = Codec.encode codec data in
      B.write b id bytes;
      match e.resident with
      | Some m -> m.blocks.(id) <- Codec.decode codec bytes
      | None -> ()

let drop_cache t =
  (* the calling domain's cache; worker domains drop theirs when they
     next split (their caches die with the pool, not the store) *)
  if t.cache_capacity > 0 then begin
    let dc = Domain.DLS.get t.dcache in
    Lru.clear dc.lru;
    Hashtbl.reset dc.decoded
  end;
  match t.state with
  | Mem _ -> ()
  | Ext { backend = Store_intf.Backend ((module B), b); _ } -> B.drop_cache b

let flush t =
  match t.state with
  | Mem _ -> ()
  | Ext { backend = Store_intf.Backend ((module B), b); _ } -> B.flush b

let close t =
  match t.state with
  | Mem _ -> ()
  | Ext { backend = Store_intf.Backend ((module B), b); _ } -> B.close b

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

let set_stats t stats = t.stats <- stats

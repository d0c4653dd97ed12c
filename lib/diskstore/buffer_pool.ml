(* A read cache of pages over a Block_file with pluggable eviction.

   The pool holds up to [capacity] page payloads.  Reads of resident
   pages are free cache hits; a miss costs one physical page read.
   Hits and evictions are recorded in the file's Io_stats; the
   physical reads are recorded by Block_file itself, so the stats read
   like a real device trace: reads = page faults, hits = saved I/Os.
   Nothing is ever written: a snapshot file is written once, whole, by
   Snapshot.save. *)

type policy = Lru | Clock

type frame = {
  data : bytes;
  mutable referenced : bool; (* CLOCK second-chance bit *)
}

type t = {
  file : Block_file.t;
  policy : policy;
  capacity : int;
  frames : (int, frame) Hashtbl.t; (* page -> frame *)
  lru : Emio.Lru.t; (* recency order when policy = Lru *)
  slots : int array; (* page per CLOCK slot, -1 = free *)
  mutable hand : int;
}

let create ~file ~policy ~capacity =
  if capacity < 0 then invalid_arg "Buffer_pool.create: negative capacity";
  {
    file;
    policy;
    capacity;
    frames = Hashtbl.create (max 16 capacity);
    lru = Emio.Lru.create ~capacity;
    slots = Array.make (max 1 capacity) (-1);
    hand = 0;
  }

let file t = t.file
let stats t = Block_file.stats t.file

let evict t page =
  if Hashtbl.mem t.frames page then begin
    Hashtbl.remove t.frames page;
    Emio.Io_stats.record_eviction (stats t)
  end

(* Claim a CLOCK slot for [page], evicting the victim the hand settles
   on.  Each frame gets a second chance: a set reference bit is cleared
   and the hand moves on. *)
let clock_claim t page =
  let rec sweep () =
    let s = t.hand in
    let occupant = t.slots.(s) in
    if occupant = -1 then begin
      t.slots.(s) <- page;
      t.hand <- (s + 1) mod t.capacity
    end
    else begin
      let frame = Hashtbl.find t.frames occupant in
      if frame.referenced then begin
        frame.referenced <- false;
        t.hand <- (s + 1) mod t.capacity;
        sweep ()
      end
      else begin
        evict t occupant;
        t.slots.(s) <- page;
        t.hand <- (s + 1) mod t.capacity
      end
    end
  in
  sweep ()

let insert t page data =
  (match t.policy with
  | Lru ->
      let _hit, evicted = Emio.Lru.touch_report t.lru page in
      (match evicted with Some victim -> evict t victim | None -> ())
  | Clock -> clock_claim t page);
  Hashtbl.replace t.frames page { data; referenced = true }

let read_page t page =
  if t.capacity = 0 then Block_file.read_page t.file page
  else
    match Hashtbl.find_opt t.frames page with
    | Some frame ->
        (match t.policy with
        | Lru -> ignore (Emio.Lru.touch t.lru page)
        | Clock -> frame.referenced <- true);
        Emio.Io_stats.record_hit (stats t);
        Ok frame.data
    | None -> (
        match Block_file.read_page t.file page with
        | Error _ as e -> e
        | Ok data ->
            insert t page data;
            Ok data)

let drop t =
  Hashtbl.reset t.frames;
  Emio.Lru.clear t.lru;
  Array.fill t.slots 0 (Array.length t.slots) (-1);
  t.hand <- 0

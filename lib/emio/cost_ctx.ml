(* Scoped I/O accounting.  A Cost_ctx mirrors every Io_stats record
   made while it is installed, so a caller can attribute I/O to one
   query without resetting (or even knowing about) the ambient
   counters hanging off each store.  Contexts nest: all installed
   contexts are charged, so a batch context sees the sum of its
   queries' contexts. *)

type event =
  | Block_read of { hit : bool }
  | Block_write
  | Node of { label : string }
  | Level of { label : string }

type t = {
  mutable reads : int;
  mutable writes : int;
  mutable hits : int;
  mutable bytes_read : int;
  trace : (event -> unit) option;
}

let create ?trace () =
  {
    reads = 0;
    writes = 0;
    hits = 0;
    bytes_read = 0;
    trace;
  }

(* Reusing one context per domain (reset between queries) is how the
   batch engine keeps per-query accounting allocation-free; the
   counters afterwards are bit-identical to a fresh context's. *)
let reset t =
  t.reads <- 0;
  t.writes <- 0;
  t.hits <- 0;
  t.bytes_read <- 0

let reads t = t.reads
let writes t = t.writes
let total t = t.reads + t.writes
let hits t = t.hits
let bytes_read t = t.bytes_read

(* The installed-context stack lives in domain-local storage (a
   [Domain.DLS] key), so each domain of a parallel batch charges
   exactly the contexts its own queries installed — no cross-domain
   bleed, no locking. *)
let stack : t list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let uninstall ctx =
  match Domain.DLS.get stack with
  | top :: rest when top == ctx -> Domain.DLS.set stack rest
  | l -> Domain.DLS.set stack (List.filter (fun c -> c != ctx) l)

let with_ctx ctx f =
  Domain.DLS.set stack (ctx :: Domain.DLS.get stack);
  match f () with
  | v ->
      uninstall ctx;
      v
  | exception e ->
      uninstall ctx;
      raise e

(* Mask every installed context on the calling domain for the duration
   of [f].  A delegating layer that accounts work under private sinks
   and replays the totals afterwards (Io_stats.merge_into) runs the
   work under this, so the caller's contexts are charged exactly once
   whether the work happened on this domain or on workers (whose
   thread-local stacks are empty anyway). *)
let unscoped f =
  let saved = Domain.DLS.get stack in
  Domain.DLS.set stack [];
  match f () with
  | v ->
      Domain.DLS.set stack saved;
      v
  | exception e ->
      Domain.DLS.set stack saved;
      raise e

let active () = match Domain.DLS.get stack with [] -> false | _ :: _ -> true

let has_trace c = match c.trace with None -> false | Some _ -> true

let tracing () =
  (* hand-rolled List.exists: the hot callers test this on every block
     access, and an untraced stack must answer without a generic
     -compare call or closure *)
  let rec any = function
    | [] -> false
    | c :: rest -> has_trace c || any rest
  in
  any (Domain.DLS.get stack)

let note_read () =
  List.iter (fun c -> c.reads <- c.reads + 1) (Domain.DLS.get stack)

let note_write () =
  List.iter (fun c -> c.writes <- c.writes + 1) (Domain.DLS.get stack)

let note_hit () =
  List.iter (fun c -> c.hits <- c.hits + 1) (Domain.DLS.get stack)

(* Fused note-and-tracing-test variants for the Store block paths: one
   thread-local fetch and one stack walk per block access, instead of a
   note_* walk followed by a separate {!tracing} walk.  Return [true]
   iff some installed context wants {!emit}ted events. *)

let note_read_traced () =
  let rec go traced = function
    | [] -> traced
    | c :: rest ->
        c.reads <- c.reads + 1;
        go (traced || has_trace c) rest
  in
  go false (Domain.DLS.get stack)

let note_write_traced () =
  let rec go traced = function
    | [] -> traced
    | c :: rest ->
        c.writes <- c.writes + 1;
        go (traced || has_trace c) rest
  in
  go false (Domain.DLS.get stack)

let note_hit_traced () =
  let rec go traced = function
    | [] -> traced
    | c :: rest ->
        c.hits <- c.hits + 1;
        go (traced || has_trace c) rest
  in
  go false (Domain.DLS.get stack)

(* Bulk mirror for delegating layers (the shard layer) that run work
   under private stats/contexts — e.g. on worker domains whose DLS
   never saw the caller's stack — and afterwards replay the totals
   into whatever contexts the caller has installed. *)
let note_bulk ~reads ~writes ~hits ~bytes_read =
  List.iter
    (fun c ->
      c.reads <- c.reads + reads;
      c.writes <- c.writes + writes;
      c.hits <- c.hits + hits;
      c.bytes_read <- c.bytes_read + bytes_read)
    (Domain.DLS.get stack)

let note_bytes_read n =
  List.iter (fun c -> c.bytes_read <- c.bytes_read + n) (Domain.DLS.get stack)

let emit ev =
  List.iter
    (fun c -> match c.trace with None -> () | Some sink -> sink ev)
    (Domain.DLS.get stack)

type t = {
  mutable reads : int;
  mutable writes : int;
  mutable hits : int;
  mutable evictions : int;
  mutable bytes_read : int;
}

let create () =
  {
    reads = 0;
    writes = 0;
    hits = 0;
    evictions = 0;
    bytes_read = 0;
  }

let reads t = t.reads
let writes t = t.writes
let total t = t.reads + t.writes
let cache_hits t = t.hits
let evictions t = t.evictions
let bytes_read t = t.bytes_read

(* Every record is mirrored into the installed Cost_ctx stack (if
   any), so per-query scoped accounting never needs to reset these
   ambient counters. *)

let record_read t =
  t.reads <- t.reads + 1;
  Cost_ctx.note_read ()

let record_write t =
  t.writes <- t.writes + 1;
  Cost_ctx.note_write ()

let record_hit t =
  t.hits <- t.hits + 1;
  Cost_ctx.note_hit ()

(* Fused record-and-tracing-test variants for the Store block hot
   paths (see Cost_ctx.note_read_traced). *)

let record_read_traced t =
  t.reads <- t.reads + 1;
  Cost_ctx.note_read_traced ()

let record_write_traced t =
  t.writes <- t.writes + 1;
  Cost_ctx.note_write_traced ()

let record_hit_traced t =
  t.hits <- t.hits + 1;
  Cost_ctx.note_hit_traced ()

let record_eviction t =
  t.evictions <- t.evictions + 1

let record_bytes_read t n =
  t.bytes_read <- t.bytes_read + n;
  Cost_ctx.note_bytes_read n

(* Fold [src]'s counters into [t], mirroring into any installed
   Cost_ctx exactly as the equivalent record_* sequence would. *)
let merge_into ~src t =
  t.reads <- t.reads + src.reads;
  t.writes <- t.writes + src.writes;
  t.hits <- t.hits + src.hits;
  t.evictions <- t.evictions + src.evictions;
  t.bytes_read <- t.bytes_read + src.bytes_read;
  Cost_ctx.note_bulk ~reads:src.reads ~writes:src.writes ~hits:src.hits
    ~bytes_read:src.bytes_read

let reset t =
  t.reads <- 0;
  t.writes <- 0;
  t.hits <- 0;
  t.evictions <- 0;
  t.bytes_read <- 0

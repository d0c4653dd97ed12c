(** The lcsearch wire protocol, version 1.

    One message per frame (see {!Frame} for the length prefix), encoded
    with the repo's {!Emio.Codec} fixed-width little-endian conventions
    and framed by [Codec.versioned] under magic ["LCSV"] — a frame
    written under a different magic or version is rejected at decode
    with an error naming both, exactly like a snapshot section.

    Clients send {!constructor:Query}; the server answers every request
    with exactly one of {!constructor:Result}, {!constructor:Shed}, or
    {!constructor:Error} carrying the request's [id].  A request is
    never silently dropped: overload surfaces as an explicit [Shed]
    (admission queue full, deadline passed while queued, or server
    draining), not as a hang. *)

type request = {
  id : int;  (** client-chosen, [0..2^32-1], echoed in the response *)
  structure : string;  (** serving name, e.g. ["h2"] *)
  want_ids : bool;
      (** ask for the answers' build-time ids *)
  deadline_ms : int;
      (** queueing budget in milliseconds; [0] = server default *)
  a0 : float;
  a : float array;
      (** the paper's query x_d <= a0 + sum a_i x_i; length d-1 *)
}

type shed_reason =
  | Queue_full  (** the admission queue was at capacity on arrival *)
  | Deadline_exceeded  (** queued longer than the request's deadline *)
  | Draining  (** the server is shutting down and accepts no new work *)

type error_code = Unknown_structure | Bad_dimension | Bad_request

type server_stats = {
  dispatchers : int;  (** effective dispatcher-shard count *)
  readers : int;  (** effective reactor-thread count *)
  domains : int;  (** domain fan-out for count-only batches *)
  accepted : int;
  served : int;
  shed_full : int;
  shed_deadline : int;
  shed_drain : int;
  errors : int;
  batches : int;  (** dispatcher batches executed *)
  coalesced : int;
      (** requests that rode in a multi-request coalesced batch *)
  max_batch : int;  (** largest batch any dispatcher executed *)
}

type msg =
  | Query of request
  | Result of {
      id : int;
      count : int;  (** points satisfying the query *)
      reads : int;  (** model I/O reads charged to this query *)
      writes : int;
      hits : int;
      elapsed_ns : int;  (** server-side sojourn: enqueue to response *)
      ids : int array;
          (** answer ids (build-time dataset indices); empty unless
              the request set [want_ids] *)
    }
  | Shed of { id : int; reason : shed_reason }
  | Error of { id : int; code : error_code; message : string }
  | Stats_query of { id : int }
      (** introspection: answered inline by the reader, never queued —
          loadgen uses it to stamp server-side counters into
          BENCH_SERVE.json meta *)
  | Stats of { id : int; stats : server_stats }

val codec : msg Emio.Codec.t
(** Raises {!Emio.Codec.Decode} on malformed input, like every codec. *)

val pp : Format.formatter -> msg -> unit

(* A persistent pool of worker domains fed through a mutex/condition
   pair, with chunked claiming from a shared atomic index.

   Why a pool: Domain.spawn costs hundreds of microseconds (thread
   creation plus a stop-the-world handshake with every running
   domain), which is longer than an entire 256-query h2 batch — the
   spawn-per-batch engine this replaces measured 0.05-0.2x
   "speedups".  Workers here are spawned once, park on [work_cv]
   between jobs, and are handed each new job by a generation bump. *)

let default_domains () =
  max 1 (min 8 (Domain.recommended_domain_count () - 1))

(* One batch handed to the pool.  [next] is the shared claim index;
   workers take [chunk] indices per fetch-and-add.  [tickets] bounds
   participation: a pool larger than the job's [helpers] (an earlier
   batch asked for more domains) lets the excess workers check in and
   go straight back to sleep. *)
type job = {
  body : int -> int -> unit;
  n : int;
  chunk : int;
  helpers : int;
  next : int Atomic.t;
  tickets : int Atomic.t;
  error : exn option Atomic.t;
}

let mutex = Mutex.create ()
let work_cv = Condition.create ()
let done_cv = Condition.create ()

(* All pool state below is read/written under [mutex] only. *)
let current_job : job option ref = ref None
let generation = ref 0
let unfinished = ref 0
let pool : unit Domain.t list ref = ref []
let pool_count = ref 0
let quit = ref false

let pool_size () = !pool_count

let claim_loop j =
  let continue = ref true in
  while !continue do
    if Atomic.get j.error <> None then continue := false
    else begin
      let lo = Atomic.fetch_and_add j.next j.chunk in
      if lo >= j.n then continue := false
      else begin
        let hi = min j.n (lo + j.chunk) in
        try j.body lo hi
        with e -> ignore (Atomic.compare_and_set j.error None (Some e))
      end
    end
  done

let worker () =
  let seen = ref 0 and running = ref true in
  while !running do
    Mutex.lock mutex;
    while (not !quit) && !generation = !seen do
      Condition.wait work_cv mutex
    done;
    if !quit then begin
      running := false;
      Mutex.unlock mutex
    end
    else begin
      seen := !generation;
      let j = match !current_job with Some j -> j | None -> assert false in
      Mutex.unlock mutex;
      if Atomic.fetch_and_add j.tickets 1 < j.helpers then claim_loop j;
      Mutex.lock mutex;
      decr unfinished;
      if !unfinished = 0 then Condition.broadcast done_cv;
      Mutex.unlock mutex
    end
  done

(* Called with [mutex] held.  A worker spawned mid-growth blocks on
   the mutex until the caller publishes the job and unlocks, then
   sees generation <> 0 = its [seen] and participates immediately. *)
let ensure_workers k =
  while !pool_count < k do
    pool := Domain.spawn worker :: !pool;
    incr pool_count
  done

let shutdown () =
  Mutex.lock mutex;
  quit := true;
  Condition.broadcast work_cv;
  let workers = !pool in
  pool := [];
  pool_count := 0;
  Mutex.unlock mutex;
  List.iter Domain.join workers;
  (* let a later [run] rebuild the pool (tests exercise this) *)
  Mutex.lock mutex;
  quit := false;
  Mutex.unlock mutex

let () = at_exit shutdown

(* The pool has one job slot ([current_job]/[generation]/[unfinished]),
   so a parallel [run] has one caller at a time.  Concurrent callers
   (serve dispatcher domains) arbitrate through this lease: whoever
   wins the CAS may call [run ~domains>1]; everyone else falls back to
   [~domains:1], which never touches the shared slot.  Costs are
   bit-identical either way (the parallel-equivalence suites pin that),
   so the fallback is a throughput choice, not a semantic one.  [run]
   refuses a second parallel caller instead of clobbering the slot. *)
let lease = Atomic.make false
let try_acquire () = Atomic.compare_and_set lease false true
let release () = Atomic.set lease false

let run ~domains ~n body =
  let domains = max 1 (min domains n) in
  if n > 0 then begin
    if domains = 1 then body 0 n
    else begin
      let chunk = max 1 (n / (8 * domains)) in
      let j =
        {
          body;
          n;
          chunk;
          helpers = domains - 1;
          next = Atomic.make 0;
          tickets = Atomic.make 0;
          error = Atomic.make None;
        }
      in
      Mutex.lock mutex;
      if Option.is_some !current_job then begin
        Mutex.unlock mutex;
        invalid_arg "Par.run: the pool is busy (hold the lease to fan out)"
      end;
      ensure_workers (domains - 1);
      current_job := Some j;
      incr generation;
      unfinished := !pool_count;
      Condition.broadcast work_cv;
      Mutex.unlock mutex;
      claim_loop j;
      Mutex.lock mutex;
      while !unfinished > 0 do
        Condition.wait done_cv mutex
      done;
      current_job := None;
      Mutex.unlock mutex;
      match Atomic.get j.error with Some e -> raise e | None -> ()
    end
  end

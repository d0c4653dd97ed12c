(** Parallel execution on a persistent pool of [Domain]s.  The
    {!Query_engine} batch runner is the main caller — queries against
    the registered structures are read-only and keep their per-query
    accounting in domain-local {!Emio.Cost_ctx}s, which is what makes
    the fan-out safe.

    The pool is lazily created on the first parallel {!run}: worker
    domains are spawned once per process, parked on a condition
    variable between jobs, and reused across batches (spawning a
    domain costs hundreds of microseconds — more than a whole 256
    query h2 batch — which is why the per-batch [Domain.spawn] of the
    first engine was a slowdown).  The pool grows to the largest
    [domains] ever requested and is joined by an [at_exit] hook (or an
    explicit {!shutdown}).

    Calling rule: the pool has one job slot, so at most one parallel
    {!run} (one with [domains > 1]) may be in flight at a time.
    The caller may be any domain.  Callers that can overlap — serve
    dispatcher domains — arbitrate through the lease ({!try_acquire} /
    {!release}); a loser runs with [~domains:1], which never touches
    the pool and is safe from anywhere, including inside a job body.
    A parallel call made while another is in flight raises
    [Invalid_argument] rather than corrupting the slot. *)

val default_domains : unit -> int
(** The fan-out to use when the caller expressed no preference:
    [Domain.recommended_domain_count () - 1] (leaving a core for the
    calling domain's share of the work), clamped to [\[1, 8\]]. *)

val run : domains:int -> n:int -> (int -> int -> unit) -> unit
(** [run ~domains ~n body] executes [body lo hi] over disjoint index
    ranges covering [\[0, n)].  Ranges are claimed from a shared atomic
    index in steps of [max 1 (n / (8 * domains))] indices, so uneven
    work balances across domains without paying one fetch-and-add per
    item.  At most [domains] domains participate; the calling domain is
    one of them.  The first exception any worker raises is re-raised
    after the job completes.  With [min domains n <= 1] this is exactly
    [body 0 n] on the calling domain. *)

val pool_size : unit -> int
(** Worker domains currently parked in the pool (0 before the first
    parallel {!run}).  The calling domain is not counted. *)

val shutdown : unit -> unit
(** Join every pooled worker domain.  Idempotent; registered
    [at_exit].  A later {!run} simply respawns the pool, so this is
    safe to call between batches (tests do, to pin pool reuse). *)

val try_acquire : unit -> bool
(** Claim the pool lease.  Non-blocking; returns [false] when another
    holder has it.  The winner may call {!run} with
    [domains > 1] until it calls {!release}; a loser must run its
    work with [~domains:1] instead — same answers, same per-query
    costs, just no fan-out. *)

val release : unit -> unit
(** Give the lease back.  Only the holder may call this. *)

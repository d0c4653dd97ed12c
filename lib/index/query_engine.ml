(* Generic query execution with per-query cost records.  Each query
   runs inside an Emio.Cost_ctx, so the I/O charge is scoped to the
   query without resetting the structure's ambient Io_stats — the
   reset-free replacement for the benches' old
   "reset stats; query; read stats" dance. *)

type cost = {
  reads : int;
  writes : int;
  hits : int;
  result : int;  (** points reported *)
  events : Emio.Cost_ctx.event list;  (** trace, oldest first; [] untraced *)
}

let run_query ?(trace = false) inst q =
  let events = ref [] in
  let ctx =
    if trace then
      Emio.Cost_ctx.create ~trace:(fun ev -> events := ev :: !events) ()
    else Emio.Cost_ctx.create ()
  in
  let result =
    Emio.Cost_ctx.with_ctx ctx (fun () -> Index.query_count inst q)
  in
  {
    reads = Emio.Cost_ctx.reads ctx;
    writes = Emio.Cost_ctx.writes ctx;
    hits = Emio.Cost_ctx.hits ctx;
    result;
    events = List.rev !events;
  }

(* {2 The batch fast path}

   Costs are written into preallocated unboxed int arrays (one slot
   per query) instead of per-query [cost] allocations, and each domain
   charges one long-lived scratch context — resolved from domain-local
   storage once per claimed chunk, installed once per chunk, and
   [reset] between queries, which reports exactly what a fresh context
   would.  The scratch keys below are per-domain ([Domain.DLS]), so
   the steady-state engine overhead per query is four int stores and a
   context reset — no allocation, no per-query DLS traffic, no
   context-stack churn. *)

type scratch = { ctx : Emio.Cost_ctx.t; reporter : Emio.Reporter.t }

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { ctx = Emio.Cost_ctx.create (); reporter = Emio.Reporter.create () })

let domain_reporter () = (Domain.DLS.get scratch_key).reporter

let run_cost_chunk inst qs ~reads ~writes ~hits ~results lo hi =
  let ctx = (Domain.DLS.get scratch_key).ctx in
  Emio.Cost_ctx.with_ctx ctx (fun () ->
      for i = lo to hi - 1 do
        Emio.Cost_ctx.reset ctx;
        results.(i) <- Index.query_count inst qs.(i);
        reads.(i) <- Emio.Cost_ctx.reads ctx;
        writes.(i) <- Emio.Cost_ctx.writes ctx;
        hits.(i) <- Emio.Cost_ctx.hits ctx
      done)

(* Batch execution.  [domains > 1] fans the queries out over the
   persistent domain pool (Par.run) in chunks of ~n/(8*domains)
   queries, so a microsecond-scale query is not dominated by claim
   traffic; at one domain Par.run is the plain loop.  Safe because
   queries are read-only, per-query accounting lives in domain-local
   scratch contexts, and block caches are per-domain (Emio.Store: each
   domain models its own memory of cache_blocks blocks) — the ambient
   Io_stats totals may interleave across domains but per-query costs
   stay exact.  Tracing callers take the boxed per-query path: event
   lists are inherently per-query allocations. *)
let run_batch_array ?(trace = false) ?(domains = 1) inst qs =
  if trace then Par.map ~domains (run_query ~trace inst) qs
  else begin
    let n = Array.length qs in
    let reads = Array.make n 0 in
    let writes = Array.make n 0 in
    let hits = Array.make n 0 in
    let results = Array.make n 0 in
    let body = run_cost_chunk inst qs ~reads ~writes ~hits ~results in
    Par.run ~domains ~n body;
    Array.init n (fun i ->
        {
          reads = reads.(i);
          writes = writes.(i);
          hits = hits.(i);
          result = results.(i);
          events = [];
        })
  end

let run_batch ?trace ?domains inst qs =
  Array.to_list (run_batch_array ?trace ?domains inst (Array.of_list qs))

(* {2 Plane-sorted batched execution}

   For the expensive 3-D structures (Index.batch_plane_sorted), a
   batch often repeats constraints — hot planes in serve traffic,
   replayed workloads, scatter benchmarks.  Sorting the batch by query
   plane (the dual point (a0, a)) groups identical constraints
   adjacently; each group then runs ONE shared traversal and the cost
   record and result count are demuxed to every member.  This is the
   cross-query amortization of Afshani–Nekrich–Staals (convexity helps
   iterated search): queries about the same plane share all their
   structure.

   Determinism: queries are read-only, the representative runs the
   same reset-install-query sequence as the per-query engine, and
   group members receive its exact cost record — so on the default
   cache-free configuration the output is bit-identical to
   [run_batch_array] on the same batch (test_batch_sorted pins this
   across kinds, workloads, and domain counts).  With block caches
   enabled, executing one traversal per distinct plane is the whole
   point and per-query hit counts legitimately differ from the
   unsorted order.

   Structures without the capability — and tracing callers, whose
   event lists are inherently per-query — fall back to
   [run_batch_array] transparently. *)

let compare_queries (a : Index.query) (b : Index.query) =
  let c = Float.compare a.Index.a0 b.Index.a0 in
  if c <> 0 then c
  else begin
    let la = Array.length a.Index.a and lb = Array.length b.Index.a in
    let c = Int.compare la lb in
    if c <> 0 then c
    else begin
      let rec go i =
        if i >= la then 0
        else begin
          let c = Float.compare a.Index.a.(i) b.Index.a.(i) in
          if c <> 0 then c else go (i + 1)
        end
      in
      go 0
    end
  end

let run_batch_sorted ?(trace = false) ?(domains = 1) inst qs =
  if trace || not (Index.batch_plane_sorted inst) then
    run_batch_array ~trace ~domains inst qs
  else begin
    let n = Array.length qs in
    let order = Array.init n (fun i -> i) in
    (* sort query indices by plane, index-stable, so grouping (and
       hence which query represents a group) is deterministic *)
    Array.sort
      (fun i j ->
        let c = compare_queries qs.(i) qs.(j) in
        if c <> 0 then c else Int.compare i j)
      order;
    (* group starts: maximal runs of exactly-equal planes *)
    let starts = Array.make (n + 1) 0 in
    let ngroups = ref 0 in
    for oi = 0 to n - 1 do
      if oi = 0 || compare_queries qs.(order.(oi - 1)) qs.(order.(oi)) <> 0
      then begin
        starts.(!ngroups) <- oi;
        incr ngroups
      end
    done;
    let ngroups = !ngroups in
    starts.(ngroups) <- n;
    let reads = Array.make n 0 in
    let writes = Array.make n 0 in
    let hits = Array.make n 0 in
    let results = Array.make n 0 in
    let run_groups glo ghi =
      let ctx = (Domain.DLS.get scratch_key).ctx in
      Emio.Cost_ctx.with_ctx ctx (fun () ->
          for g = glo to ghi - 1 do
            let s = starts.(g) and e = starts.(g + 1) in
            Emio.Cost_ctx.reset ctx;
            let result = Index.query_count inst qs.(order.(s)) in
            let rd = Emio.Cost_ctx.reads ctx in
            let wr = Emio.Cost_ctx.writes ctx in
            let ht = Emio.Cost_ctx.hits ctx in
            for oi = s to e - 1 do
              let i = order.(oi) in
              results.(i) <- result;
              reads.(i) <- rd;
              writes.(i) <- wr;
              hits.(i) <- ht
            done
          done)
    in
    Par.run ~domains ~n:ngroups run_groups;
    Array.init n (fun i ->
        {
          reads = reads.(i);
          writes = writes.(i);
          hits = hits.(i);
          result = results.(i);
          events = [];
        })
  end

(* Single-query entry point on the batch engine's scratch state, for
   callers (the serve dispatcher) that handle requests one at a time
   and must not pay the batch fan-out setup per request.  The charging
   protocol is the same reset-install-run sequence as one iteration of
   [run_cost_chunk], so the cost record is bit-identical to what the
   query would report inside a batch (test_query_engine pins this).

   With [?reporter] the query runs on the {!Index.query_into} path:
   the answer ids are appended to the caller's reporter — typically
   {!domain_reporter} — and [result] is still the count.  Not
   thread-safe against concurrent engine calls on the same domain: the
   scratch context is domain-local, exactly like the batch path. *)
let run_one ?reporter inst q =
  let ctx = (Domain.DLS.get scratch_key).ctx in
  Emio.Cost_ctx.reset ctx;
  let result =
    Emio.Cost_ctx.with_ctx ctx (fun () ->
        match reporter with
        | None -> Index.query_count inst q
        | Some r -> Index.query_into inst q r)
  in
  {
    reads = Emio.Cost_ctx.reads ctx;
    writes = Emio.Cost_ctx.writes ctx;
    hits = Emio.Cost_ctx.hits ctx;
    result;
    events = [];
  }

(* Nearest-rank percentile of an int sample, p in [0, 1]: sort once
   into an array and index the rank directly (the old implementation
   walked a sorted list with List.nth per call). *)
let percentile p xs =
  if not (p >= 0. && p <= 1.) then
    invalid_arg "Query_engine.percentile: p must be in [0, 1]";
  match xs with
  | [] -> invalid_arg "Query_engine.percentile: empty sample"
  | _ ->
      let sorted = Array.of_list xs in
      Array.sort Int.compare sorted;
      let n = Array.length sorted in
      let rank =
        let r = int_of_float (ceil (p *. float_of_int n)) in
        Stdlib.min n (Stdlib.max 1 r)
      in
      sorted.(rank - 1)

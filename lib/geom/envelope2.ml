type kind = Lower | Upper

type t = {
  kind : kind;
  lines : Line2.t array; (* envelope segments, left to right *)
  bps : float array; (* bps.(i) separates lines.(i) and lines.(i+1) *)
}

let size t = Array.length t.lines
let is_empty t = size t = 0
let breakpoints t = t.bps

(* Along a lower envelope slopes strictly decrease left to right; along
   an upper envelope they strictly increase.  We therefore process
   candidate lines from the leftmost-segment slope onwards and maintain
   a stack of (segment line, segment start x). *)
let build k input =
  let lines = Array.copy input in
  (match k with
  | Lower ->
      (* leftmost segment has the largest slope; ties keep the lowest *)
      Array.sort
        (fun (a : Line2.t) b ->
          let c = Float.compare (Line2.slope b) (Line2.slope a) in
          if c <> 0 then c else Float.compare (Line2.icept a) (Line2.icept b))
        lines
  | Upper ->
      Array.sort
        (fun (a : Line2.t) b ->
          let c = Float.compare (Line2.slope a) (Line2.slope b) in
          if c <> 0 then c else Float.compare (Line2.icept b) (Line2.icept a))
        lines);
  let n = Array.length lines in
  if n = 0 then { kind = k; lines = [||]; bps = [||] }
  else begin
    let stack_lines = Array.make n lines.(0) in
    let stack_start = Array.make n neg_infinity in
    let top = ref (-1) in
    let push l x =
      incr top;
      stack_lines.(!top) <- l;
      stack_start.(!top) <- x
    in
    for i = 0 to n - 1 do
      let l = lines.(i) in
      if !top < 0 then push l neg_infinity
      else if Line2.parallel l stack_lines.(!top) then
        (* dominated duplicate slope: the sort put the better one first *)
        ()
      else begin
        (* [l] has strictly smaller (Lower) / larger (Upper) slope than
           everything on the stack, so it owns the envelope after the
           meet point; pop segments it fully covers. *)
        let rec settle () =
          if !top < 0 then push l neg_infinity
          else
            let x = Line2.meet_x l stack_lines.(!top) in
            if x <= stack_start.(!top) then begin
              decr top;
              settle ()
            end
            else push l x
        in
        settle ()
      end
    done;
    let m = !top + 1 in
    {
      kind = k;
      lines = Array.sub stack_lines 0 m;
      bps = Array.init (max 0 (m - 1)) (fun i -> stack_start.(i + 1));
    }
  end

(* Index of the segment containing abscissa [x]: number of breakpoints
   strictly below [x]. *)
let segment_index t x =
  let lo = ref 0 and hi = ref (Array.length t.bps) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.bps.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let line_at t x =
  if is_empty t then invalid_arg "Envelope2.line_at: empty envelope";
  t.lines.(segment_index t x)

let eval t x =
  if is_empty t then invalid_arg "Envelope2.eval: empty envelope";
  Line2.eval (line_at t x) x

(* Signed gap between the probe y = slope x + icept and envelope line
   [i] at [x], positive when the probe is on the envelope's outer side.
   On line [i]'s own segment this is the gap to the envelope; in both
   kinds it is a concave piecewise-linear function of x, which is what
   makes the binary searches below sound. *)
let[@inline] gap_on t ~slope ~icept i x =
  match t.kind with
  | Upper -> ((slope *. x) +. icept) -. Line2.eval t.lines.(i) x
  | Lower -> Line2.eval t.lines.(i) x -. ((slope *. x) +. icept)

(* The gap at breakpoint [j].  Breakpoints strictly increase, so
   breakpoint [j] is the left end of segment [j + 1] and the envelope
   there is read on segment [j], the one [segment_index] would find
   for [bps.(j)] ([j] breakpoints lie strictly below it). *)
let[@inline] gap_at t ~slope ~icept j = gap_on t ~slope ~icept j t.bps.(j)

let[@inline] gap_slope t ~slope i =
  match t.kind with
  | Upper -> slope -. Line2.slope t.lines.(i)
  | Lower -> Line2.slope t.lines.(i) -. slope

(* [Line2.parallel] and [Line2.meet_x] of the probe and envelope line
   [i], on the probe's own floats. *)
let[@inline] parallel t ~slope i = Eps.equal slope (Line2.slope t.lines.(i))

let[@inline] meet_x t ~slope ~icept i =
  let l = t.lines.(i) in
  (Line2.icept l -. icept) /. (slope -. Line2.slope l)

(* No local closures below: the 3-D build calls this once per plane
   and wall, and the helpers above inline with their floats unboxed. *)
let outer_interval t ~slope ~icept out =
  let m = size t and nb = Array.length t.bps in
  if m = 0 then false
  else if gap_slope t ~slope (m - 1) > 0. then begin
    (* gap increases to +infinity: outer region is a right ray *)
    if gap_slope t ~slope 0 > 0. then begin
      (* increasing everywhere: gap negative at -inf; left crossing is
         the single sign change, on the first segment whose right end
         (or +inf) has a positive gap *)
      let lo = ref 0 and hi = ref nb in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if gap_at t ~slope ~icept mid > Eps.eps then hi := mid
        else lo := mid + 1
      done;
      out.(0) <-
        (if parallel t ~slope !lo then neg_infinity
         else meet_x t ~slope ~icept !lo)
    end
    else
      (* decreasing then increasing is impossible for a concave gap;
         slope 0 <= 0 < slope (m-1) cannot happen *)
      out.(0) <- neg_infinity;
    out.(1) <- infinity;
    true
  end
  else if gap_slope t ~slope 0 < 0. then begin
    (* gap decreases from +infinity: outer region is a left ray ending
       on the last segment whose right-end gap is still positive: find
       the first breakpoint where the gap is <= 0 *)
    let lo = ref 0 and hi = ref nb in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if gap_at t ~slope ~icept mid < -.Eps.eps then hi := mid
      else lo := mid + 1
    done;
    let j = min !lo (m - 1) in
    out.(0) <- neg_infinity;
    out.(1) <-
      (if parallel t ~slope j then infinity else meet_x t ~slope ~icept j);
    true
  end
  else begin
    (* concave with nonnegative left slope and nonpositive right slope:
       bounded peak.  Find the peak breakpoint: the last segment with
       positive gap slope. *)
    let lo = ref 0 and hi = ref (m - 1) in
    (* find smallest i with slope i <= 0; peak is at bps.(i-1) if i>0 *)
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if gap_slope t ~slope mid <= 0. then hi := mid else lo := mid + 1
    done;
    let peak_gap =
      if nb = 0 then gap_on t ~slope ~icept 0 0.
      else gap_at t ~slope ~icept (if !lo = 0 then 0 else !lo - 1)
    in
    if peak_gap <= Eps.eps then false
    else begin
      (* left crossing: gap goes negative -> positive moving right;
         breakpoints [0, lo): find first with positive gap *)
      let l = ref 0 and h = ref !lo in
      while !l < !h do
        let mid = (!l + !h) / 2 in
        if gap_at t ~slope ~icept mid > Eps.eps then h := mid
        else l := mid + 1
      done;
      let left =
        if parallel t ~slope !l then neg_infinity
        else meet_x t ~slope ~icept !l
      in
      (* breakpoints [lo, nb): find first with negative gap *)
      let l = ref !lo and h = ref nb in
      while !l < !h do
        let mid = (!l + !h) / 2 in
        if gap_at t ~slope ~icept mid < -.Eps.eps then h := mid
        else l := mid + 1
      done;
      let j = min !l (m - 1) in
      let right =
        if parallel t ~slope j then infinity else meet_x t ~slope ~icept j
      in
      if left >= right then false
      else begin
        out.(0) <- left;
        out.(1) <- right;
        true
      end
    end
  end

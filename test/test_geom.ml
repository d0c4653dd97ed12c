(* Tests for 2-D primitives, duality (Lemma 2.1) and envelopes. *)

open Geom

let line s i = Line2.make ~slope:s ~icept:i

(* --- primitives ------------------------------------------------------ *)

let test_line_ops () =
  let l = line 2. 1. in
  Alcotest.(check (float 1e-9)) "eval" 7. (Line2.eval l 3.);
  let m = line (-1.) 4. in
  Alcotest.(check (float 1e-9)) "meet_x" 1. (Line2.meet_x l m);
  Alcotest.(check bool) "below" true
    (Line2.below_point l (Point2.make 0. 2.));
  Alcotest.(check bool) "above" true
    (Line2.above_point l (Point2.make 0. 0.));
  Alcotest.(check bool) "through" true
    (Line2.through_point l (Point2.make 1. 3.))

let test_orient () =
  let p = Point2.make 0. 0. and q = Point2.make 1. 0. in
  Alcotest.(check int) "left" 1 (Point2.orient p q (Point2.make 0. 1.));
  Alcotest.(check int) "right" (-1) (Point2.orient p q (Point2.make 0. (-1.)));
  Alcotest.(check int) "collinear" 0 (Point2.orient p q (Point2.make 2. 0.))

(* Lemma 2.1: p above h iff p* above h*. *)
let prop_duality_preserves_above_below =
  let gen =
    QCheck.Gen.(
      let coord = float_range (-50.) 50. in
      quad coord coord coord coord)
  in
  QCheck.Test.make ~count:500
    ~name:"duality preserves above/below (Lemma 2.1)"
    (QCheck.make gen) (fun (px, py, hs, hc) ->
      let p = Point2.make px py in
      let h = line hs hc in
      let p_star = Dual2.line_of_point p in
      let h_star = Dual2.point_of_line h in
      let primal =
        if Line2.below_point h p then `Above (* p above h *)
        else if Line2.above_point h p then `Below
        else `On
      in
      let dual =
        if Line2.below_point p_star h_star then `Below (* p* below h* *)
        else if Line2.above_point p_star h_star then `Above
        else `On
      in
      (* p above h <-> dual line p* above dual point h* *)
      match (primal, dual) with
      | `Above, `Above | `Below, `Below | `On, `On -> true
      | _ -> false)

(* --- envelopes -------------------------------------------------------- *)

let gen_lines n =
  QCheck.Gen.(
    list_size (2 -- n)
      (map2
         (fun s i -> line s i)
         (float_range (-10.) 10.) (float_range (-10.) 10.)))

let brute_eval kind lines x =
  let vals = List.map (fun l -> Line2.eval l x) lines in
  match kind with
  | Envelope2.Lower -> List.fold_left min infinity vals
  | Envelope2.Upper -> List.fold_left max neg_infinity vals

let close a b = Float.abs (a -. b) <= 1e-6 *. (1. +. Float.abs a)

let prop_envelope_matches_brute kind name =
  QCheck.Test.make ~count:300 ~name
    (QCheck.make QCheck.Gen.(pair (gen_lines 15) (list_size (1 -- 20) (float_range (-40.) 40.))))
    (fun (lines, xs) ->
      let env = Envelope2.build kind (Array.of_list lines) in
      List.for_all
        (fun x -> close (Envelope2.eval env x) (brute_eval kind lines x))
        xs)

(* outer_interval against a dense scan. *)
let prop_outer_interval kind name =
  QCheck.Test.make ~count:300 ~name
    (QCheck.make
       QCheck.Gen.(
         triple (gen_lines 12) (float_range (-5.) 5.) (float_range (-12.) 12.)))
    (fun (lines, probe_slope, probe_icept) ->
      let env = Envelope2.build kind (Array.of_list lines) in
      let probe = line probe_slope probe_icept in
      let outer x =
        match kind with
        | Envelope2.Lower ->
            Line2.eval probe x < Envelope2.eval env x -. 1e-6
        | Envelope2.Upper ->
            Line2.eval probe x > Envelope2.eval env x +. 1e-6
      in
      let interval =
        let out = [| nan; nan |] in
        if
          Envelope2.outer_interval env ~slope:probe_slope ~icept:probe_icept
            out
        then Some (out.(0), out.(1))
        else None
      in
      (* check agreement on a grid, skipping points near the boundary *)
      let ok = ref true in
      for i = -60 to 60 do
        let x = float_of_int i /. 2. in
        let inside =
          match interval with
          | None -> false
          | Some (lo, hi) -> x > lo +. 1e-4 && x < hi -. 1e-4
        in
        let outside =
          match interval with
          | None -> true
          | Some (lo, hi) -> x < lo -. 1e-4 || x > hi +. 1e-4
        in
        if inside && not (outer x) then ok := false;
        if outside && outer x then ok := false
      done;
      !ok)

(* outer_interval reads the envelope at breakpoint j
   on segment j, which is right only while the breakpoints strictly
   increase.  Integer lines give parallel families and many lines
   through one point; the pencil adds lines through (1, 2) whose
   slopes differ by just over the parallel tolerance, so their
   crossings scatter by rounding around x = 1. *)
let gen_hard_lines =
  QCheck.Gen.(
    let int_line =
      map2
        (fun s i -> line (float_of_int s) (float_of_int i))
        (int_range (-3) 3) (int_range (-4) 4)
    in
    let pencil =
      map
        (fun j ->
          let s = 0.5 +. (float_of_int j *. 3e-9) in
          line s (2. -. s))
        (int_range 0 40)
    in
    oneof
      [
        gen_lines 30;
        list_size (1 -- 40) int_line;
        list_size (1 -- 40) pencil;
        list_size (1 -- 40) (oneof [ int_line; pencil ]);
      ])

let prop_breakpoints_increase kind name =
  QCheck.Test.make ~count:500 ~name (QCheck.make gen_hard_lines)
    (fun lines ->
      let env = Envelope2.build kind (Array.of_list lines) in
      let bps = Envelope2.breakpoints env in
      let ok = ref (Array.length bps = max 0 (Envelope2.size env - 1)) in
      for j = 1 to Array.length bps - 1 do
        if not (bps.(j - 1) < bps.(j)) then ok := false
      done;
      !ok)

let test_envelope_shapes () =
  (* three lines forming a lower envelope with two breakpoints *)
  let lines = [| line 1. 0.; line 0. 1.; line (-1.) 4. |] in
  let env = Envelope2.build Envelope2.Lower lines in
  Alcotest.(check int) "three segments" 3 (Envelope2.size env);
  Alcotest.(check (float 1e-9)) "bp1" 1. (Envelope2.breakpoints env).(0);
  Alcotest.(check (float 1e-9)) "bp2" 3. (Envelope2.breakpoints env).(1);
  Alcotest.(check (float 1e-9)) "left part" (-2.) (Envelope2.eval env (-2.));
  Alcotest.(check (float 1e-9)) "middle" 1. (Envelope2.eval env 2.);
  Alcotest.(check (float 1e-9)) "right" (-1.) (Envelope2.eval env 5.)

let test_envelope_dominated_line_dropped () =
  (* the flat line y = 10 never appears on the lower envelope *)
  let lines = [| line 1. 0.; line (-1.) 0.; line 0. 10. |] in
  let env = Envelope2.build Envelope2.Lower lines in
  Alcotest.(check int) "two segments" 2 (Envelope2.size env)

let test_envelope_duplicate_slopes () =
  let lines = [| line 1. 5.; line 1. 0.; line (-1.) 0. |] in
  let env = Envelope2.build Envelope2.Lower lines in
  Alcotest.(check int) "two segments" 2 (Envelope2.size env);
  Alcotest.(check (float 1e-9)) "keeps lower parallel" (-10.)
    (Envelope2.eval env (-10.))

let test_envelope_single_line () =
  let env = Envelope2.build Envelope2.Upper [| line 2. 3. |] in
  Alcotest.(check int) "one segment" 1 (Envelope2.size env);
  Alcotest.(check (float 1e-9)) "eval" 7. (Envelope2.eval env 2.)

let test_envelope_empty () =
  let env = Envelope2.build Envelope2.Lower [||] in
  Alcotest.(check int) "empty" 0 (Envelope2.size env)

let () =
  Alcotest.run "geom"
    [
      ( "primitives",
        [
          Alcotest.test_case "line ops" `Quick test_line_ops;
          Alcotest.test_case "orient" `Quick test_orient;
          QCheck_alcotest.to_alcotest prop_duality_preserves_above_below;
        ] );
      ( "envelope2",
        [
          Alcotest.test_case "shapes" `Quick test_envelope_shapes;
          Alcotest.test_case "dominated dropped" `Quick
            test_envelope_dominated_line_dropped;
          Alcotest.test_case "duplicate slopes" `Quick
            test_envelope_duplicate_slopes;
          Alcotest.test_case "single line" `Quick test_envelope_single_line;
          Alcotest.test_case "empty" `Quick test_envelope_empty;
          QCheck_alcotest.to_alcotest
            (prop_envelope_matches_brute Envelope2.Lower
               "lower envelope = brute min");
          QCheck_alcotest.to_alcotest
            (prop_envelope_matches_brute Envelope2.Upper
               "upper envelope = brute max");
          QCheck_alcotest.to_alcotest
            (prop_outer_interval Envelope2.Lower "outer_interval (lower)");
          QCheck_alcotest.to_alcotest
            (prop_outer_interval Envelope2.Upper "outer_interval (upper)");
          QCheck_alcotest.to_alcotest
            (prop_breakpoints_increase Envelope2.Lower
               "breakpoints strictly increase (lower)");
          QCheck_alcotest.to_alcotest
            (prop_breakpoints_increase Envelope2.Upper
               "breakpoints strictly increase (upper)");
        ] );
    ]

(* Round-trip and rejection properties of Emio.Codec — the typed
   binary codecs every snapshot payload block and skeleton section is
   written with.  Anything these tests admit ends up on disk, so the
   properties are strict: bit-exact floats, full-range ints, and a
   Decode error (never a crash or a silent misparse) for every way a
   buffer can be damaged. *)

module C = Emio.Codec

let check_bool = Alcotest.(check bool)
let rt codec v = C.decode codec (C.encode codec v)

let expect_decode label f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Codec.Decode" label
  | exception C.Decode _ -> ()

(* ---------- primitives ---------- *)

let test_primitive_edges () =
  List.iter
    (fun v -> Alcotest.(check int) "int" v (rt C.int v))
    [ 0; 1; -1; max_int; min_int; 0x1234_5678_9ABC ];
  List.iter
    (fun v ->
      Alcotest.(check int64)
        "float bits" (Int64.bits_of_float v)
        (Int64.bits_of_float (rt C.float v)))
    [ 0.; -0.; 1.5; -3.25e300; infinity; neg_infinity; nan; 4.9e-324 ];
  List.iter (fun v -> Alcotest.(check int) "u8" v (rt C.u8 v)) [ 0; 1; 255 ];
  List.iter
    (fun v -> Alcotest.(check int) "u32" v (rt C.u32 v))
    [ 0; 1; 0xFFFF_FFFF ];
  expect_decode "u8 out of range" (fun () -> C.encode C.u8 256);
  expect_decode "u8 negative" (fun () -> C.encode C.u8 (-1));
  expect_decode "u32 out of range" (fun () -> C.encode C.u32 0x1_0000_0000);
  Alcotest.(check string)
    "string with NUL and multibyte" "h\xc3\xa9llo\000world"
    (rt C.string "h\xc3\xa9llo\000world");
  Alcotest.(check string) "empty string" "" (rt C.string "");
  check_bool "bool true" true (rt C.bool true);
  check_bool "bool false" false (rt C.bool false);
  (* a bool is one byte on the wire, and only 0/1 decode *)
  expect_decode "bad bool tag" (fun () -> C.decode C.bool (Bytes.make 1 '\002'))

let prop_int =
  QCheck.Test.make ~name:"int roundtrip" ~count:500 QCheck.int (fun v ->
      rt C.int v = v)

let prop_float =
  QCheck.Test.make ~name:"float bit-exact roundtrip" ~count:500 QCheck.float
    (fun v -> Int64.bits_of_float (rt C.float v) = Int64.bits_of_float v)

let prop_string =
  QCheck.Test.make ~name:"string roundtrip" ~count:200 QCheck.string (fun v ->
      rt C.string v = v)

(* ---------- combinators ---------- *)

let test_combinators () =
  let c = C.(pair (triple int float string) (option (array u8))) in
  let v = ((42, 2.5, "x"), Some [| 1; 2; 255 |]) in
  check_bool "nested pair/triple/option/array" true (rt c v = v);
  let v2 = ((min_int, -0., ""), None) in
  check_bool "none arm" true (rt c v2 = v2);
  let l = C.(list (pair bool int)) in
  let lv = [ (true, 1); (false, -2) ] in
  check_bool "list" true (rt l lv = lv);
  check_bool "empty list" true (rt l [] = []);
  let q = C.(quad u8 u8 int float) in
  let qv = (1, 2, -3, 0.5) in
  check_bool "quad" true (rt q qv = qv);
  expect_decode "bad option tag" (fun () ->
      C.decode C.(option u8) (Bytes.make 1 '\007'))

let test_map_variant () =
  (* the tag-byte pattern every node_ref / child codec in the repo
     uses: map over (u8, payload), rejecting unknown tags *)
  let c =
    C.map
      ~decode:(fun (tag, x) ->
        match tag with
        | 0 -> `A x
        | 1 -> `B x
        | t -> raise (C.Decode (Printf.sprintf "bad tag %d" t)))
      ~encode:(function `A x -> (0, x) | `B x -> (1, x))
      C.(pair u8 int)
  in
  check_bool "tag 0" true (rt c (`A 7) = `A 7);
  check_bool "tag 1" true (rt c (`B (-7)) = `B (-7));
  let b = C.encode c (`A 7) in
  Bytes.set b 0 '\002';
  expect_decode "unknown variant tag" (fun () -> C.decode c b)

let test_fix_recursive () =
  let tree =
    C.fix (fun self ->
        C.map
          ~decode:(fun (v, kids) -> `Node (v, kids))
          ~encode:(fun (`Node (v, kids)) -> (v, kids))
          C.(pair int (list self)))
  in
  let t = `Node (1, [ `Node (2, []); `Node (3, [ `Node (4, []) ]) ]) in
  check_bool "recursive tree roundtrip" true (rt tree t = t)

let prop_list_pairs =
  QCheck.Test.make ~name:"(int*float) list roundtrip" ~count:200
    QCheck.(list (pair int float))
    (fun v -> compare (rt C.(list (pair int float)) v) v = 0)

let prop_array =
  QCheck.Test.make ~name:"int array roundtrip" ~count:200
    QCheck.(array small_int)
    (fun v -> compare (rt C.(array int) v) v = 0)

let prop_option_string =
  QCheck.Test.make ~name:"string option roundtrip" ~count:200
    QCheck.(option string)
    (fun v -> rt C.(option string) v = v)

(* ---------- framing and damage ---------- *)

let test_versioned () =
  let c = C.versioned ~magic:"lcsearch.test" ~version:3 C.int in
  Alcotest.(check int) "versioned roundtrip" 99 (rt c 99);
  let other = C.versioned ~magic:"lcsearch.other" ~version:3 C.int in
  expect_decode "wrong magic" (fun () -> C.decode other (C.encode c 99));
  let v4 = C.versioned ~magic:"lcsearch.test" ~version:4 C.int in
  expect_decode "wrong version" (fun () -> C.decode v4 (C.encode c 99))

let test_trailing_and_truncation () =
  let c = C.(array int) in
  let b = C.encode c [| 1; 2; 3 |] in
  expect_decode "trailing garbage" (fun () ->
      C.decode c (Bytes.cat b (Bytes.make 1 'x')));
  (* every proper prefix of a valid encoding must be rejected *)
  for keep = 0 to Bytes.length b - 1 do
    expect_decode
      (Printf.sprintf "truncation to %d bytes" keep)
      (fun () -> C.decode c (Bytes.sub b 0 keep))
  done;
  (* a corrupted count field fails before any giant allocation *)
  expect_decode "implausible array count" (fun () ->
      C.decode c (C.encode C.u32 0xFF_FFFF))

let prop_flipped_byte =
  (* flipping any byte of a framed section is rejected or yields a
     different value — it never crashes with anything but Decode *)
  let codec =
    C.versioned ~magic:"lcsearch.prop" ~version:1
      C.(pair (array int) (list float))
  in
  QCheck.Test.make ~name:"flipped byte never escapes Decode" ~count:200
    QCheck.(pair (pair (array small_int) (list float)) small_nat)
    (fun (v, off) ->
      let b = C.encode codec v in
      let off = off mod Bytes.length b in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x10));
      match C.decode codec b with
      | v' -> compare v' v <> 0 || true
      | exception C.Decode _ -> true)

let () =
  Alcotest.run "codec"
    [
      ( "primitives",
        [
          Alcotest.test_case "edge values" `Quick test_primitive_edges;
          QCheck_alcotest.to_alcotest prop_int;
          QCheck_alcotest.to_alcotest prop_float;
          QCheck_alcotest.to_alcotest prop_string;
        ] );
      ( "combinators",
        [
          Alcotest.test_case "nesting" `Quick test_combinators;
          Alcotest.test_case "variants via map" `Quick test_map_variant;
          Alcotest.test_case "recursion via fix" `Quick test_fix_recursive;
          QCheck_alcotest.to_alcotest prop_list_pairs;
          QCheck_alcotest.to_alcotest prop_array;
          QCheck_alcotest.to_alcotest prop_option_string;
        ] );
      ( "framing",
        [
          Alcotest.test_case "versioned magic + version" `Quick test_versioned;
          Alcotest.test_case "trailing bytes and truncation" `Quick
            test_trailing_and_truncation;
          QCheck_alcotest.to_alcotest prop_flipped_byte;
        ] );
    ]

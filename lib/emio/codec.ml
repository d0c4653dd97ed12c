(* Typed fixed-width binary codecs for snapshot payload blocks and
   skeleton sections.  Everything is little-endian and
   architecture-independent: ints are 8-byte two's-complement, floats
   are IEEE-754 bit patterns, and no closure or in-memory
   representation detail ever reaches the wire — which is what lets a
   snapshot written by one binary (or compiler version) be reopened by
   another. *)

exception Decode of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Decode msg)) fmt

type 'a t = {
  write : Buffer.t -> 'a -> unit;
  read : bytes -> int ref -> 'a;
}

let custom ~write ~read = { write; read }
let write c buf v = c.write buf v
let read c b pos = c.read b pos

let encode c v =
  let buf = Buffer.create 256 in
  c.write buf v;
  Buffer.to_bytes buf

let decode c b =
  let pos = ref 0 in
  let v = c.read b pos in
  if !pos <> Bytes.length b then
    fail "trailing garbage: %d of %d bytes consumed" !pos (Bytes.length b);
  v

(* -- bounds-checked raw readers ---------------------------------- *)

let need b pos n =
  if n < 0 || !pos < 0 || !pos + n > Bytes.length b then
    fail "truncated: need %d bytes at offset %d of %d" n !pos (Bytes.length b)

let read_u8 b pos =
  need b pos 1;
  let v = Char.code (Bytes.get b !pos) in
  incr pos;
  v

let read_u32 b pos =
  need b pos 4;
  let p = !pos in
  let v =
    Char.code (Bytes.get b p)
    lor (Char.code (Bytes.get b (p + 1)) lsl 8)
    lor (Char.code (Bytes.get b (p + 2)) lsl 16)
    lor (Char.code (Bytes.get b (p + 3)) lsl 24)
  in
  pos := p + 4;
  v

let read_i64 b pos =
  need b pos 8;
  let p = !pos in
  let v = ref 0L in
  for i = 7 downto 0 do
    v :=
      Int64.logor (Int64.shift_left !v 8)
        (Int64.of_int (Char.code (Bytes.get b (p + i))))
  done;
  pos := p + 8;
  !v

let write_u8 buf v =
  if v < 0 || v > 0xFF then fail "u8 out of range: %d" v;
  Buffer.add_char buf (Char.chr v)

let write_u32 buf v =
  if v < 0 || v > 0xFFFFFFFF then fail "u32 out of range: %d" v;
  Buffer.add_char buf (Char.chr (v land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF))

let write_i64 buf v =
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
  done

(* -- primitives --------------------------------------------------- *)

let bool =
  {
    write = (fun buf v -> write_u8 buf (if v then 1 else 0));
    read =
      (fun b pos ->
        match read_u8 b pos with
        | 0 -> false
        | 1 -> true
        | v -> fail "bad bool tag %d" v);
  }

let u8 = { write = write_u8; read = read_u8 }
let u32 = { write = write_u32; read = read_u32 }

let int =
  {
    write = (fun buf v -> write_i64 buf (Int64.of_int v));
    read =
      (fun b pos ->
        let v = read_i64 b pos in
        let i = Int64.to_int v in
        if Int64.of_int i <> v then fail "int out of native range";
        i);
  }

let float =
  {
    write = (fun buf v -> write_i64 buf (Int64.bits_of_float v));
    read = (fun b pos -> Int64.float_of_bits (read_i64 b pos));
  }

(* A decoded count must be plausible against the bytes that remain:
   every honest element costs at least one byte for all the codecs the
   repo stores in arrays/strings, so a corrupted length field fails
   here instead of attempting a giant allocation. *)
let read_count b pos =
  let n = read_u32 b pos in
  if n > Bytes.length b - !pos then
    fail "implausible count %d with %d bytes left" n (Bytes.length b - !pos);
  n

let string =
  {
    write =
      (fun buf s ->
        write_u32 buf (String.length s);
        Buffer.add_string buf s);
    read =
      (fun b pos ->
        let n = read_count b pos in
        need b pos n;
        let s = Bytes.sub_string b !pos n in
        pos := !pos + n;
        s);
  }

(* -- combinators -------------------------------------------------- *)

let pair ca cb =
  {
    write =
      (fun buf (a, b) ->
        ca.write buf a;
        cb.write buf b);
    read =
      (fun b pos ->
        let a = ca.read b pos in
        let b' = cb.read b pos in
        (a, b'));
  }

let triple ca cb cc =
  {
    write =
      (fun buf (a, b, c) ->
        ca.write buf a;
        cb.write buf b;
        cc.write buf c);
    read =
      (fun b pos ->
        let a = ca.read b pos in
        let b' = cb.read b pos in
        let c = cc.read b pos in
        (a, b', c));
  }

let quad ca cb cc cd =
  {
    write =
      (fun buf (a, b, c, d) ->
        ca.write buf a;
        cb.write buf b;
        cc.write buf c;
        cd.write buf d);
    read =
      (fun b pos ->
        let a = ca.read b pos in
        let b' = cb.read b pos in
        let c = cc.read b pos in
        let d = cd.read b pos in
        (a, b', c, d));
  }

let option c =
  {
    write =
      (fun buf v ->
        match v with
        | None -> write_u8 buf 0
        | Some x ->
            write_u8 buf 1;
            c.write buf x);
    read =
      (fun b pos ->
        match read_u8 b pos with
        | 0 -> None
        | 1 -> Some (c.read b pos)
        | v -> fail "bad option tag %d" v);
  }

let array c =
  {
    write =
      (fun buf arr ->
        write_u32 buf (Array.length arr);
        Array.iter (fun x -> c.write buf x) arr);
    read =
      (fun b pos ->
        let n = read_count b pos in
        Array.init n (fun _ -> c.read b pos));
  }

let list c =
  {
    write =
      (fun buf l ->
        write_u32 buf (List.length l);
        List.iter (fun x -> c.write buf x) l);
    read =
      (fun b pos ->
        let n = read_count b pos in
        List.init n (fun _ -> c.read b pos));
  }

let map ~decode:of_wire ~encode:to_wire c =
  {
    write = (fun buf v -> c.write buf (to_wire v));
    read = (fun b pos -> of_wire (c.read b pos));
  }

let fix f =
  let rec self =
    {
      write = (fun buf v -> (Lazy.force inner).write buf v);
      read = (fun b pos -> (Lazy.force inner).read b pos);
    }
  and inner = lazy (f self) in
  self

(* -- versioned section framing ------------------------------------ *)

let versioned ~magic ~version c =
  if String.length magic > 0xFF then invalid_arg "Codec.versioned: magic too long";
  {
    write =
      (fun buf v ->
        write_u8 buf (String.length magic);
        Buffer.add_string buf magic;
        write_u32 buf version;
        c.write buf v);
    read =
      (fun b pos ->
        let n = read_u8 b pos in
        need b pos n;
        let got = Bytes.sub_string b !pos n in
        pos := !pos + n;
        if got <> magic then fail "bad section magic %S (expected %S)" got magic;
        let v = read_u32 b pos in
        if v <> version then
          fail "unsupported %s section version %d (expected %d)" magic v version;
        c.read b pos);
  }

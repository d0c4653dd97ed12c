type 'a t = {
  store : 'a Store.t;
  block_ids : int array;
  length : int;
}

let of_array store items =
  let b = Store.block_size store in
  let n = Array.length items in
  let n_blocks = (n + b - 1) / b in
  let block_ids =
    Array.init n_blocks (fun i ->
        let lo = i * b in
        let len = min b (n - lo) in
        Store.alloc store (Array.sub items lo len))
  in
  { store; block_ids; length = n }

let of_blocks store blocks =
  let b = Store.block_size store and nb = Array.length blocks in
  Array.iteri
    (fun i block ->
      let len = Array.length block in
      if len > b || (i < nb - 1 && len < b) || len = 0 then
        invalid_arg "Run.of_blocks: every block but the last must be full")
    blocks;
  let length = Array.fold_left (fun acc bl -> acc + Array.length bl) 0 blocks in
  { store; block_ids = Array.map (Store.alloc store) blocks; length }

let of_list store items = of_array store (Array.of_list items)

let store t = t.store
let length t = t.length
let block_count t = Array.length t.block_ids

let iter_blocks f t =
  Array.iter (fun id -> f (Store.read t.store id)) t.block_ids

let iter f t = iter_blocks (fun block -> Array.iter f block) t

let fold f init t =
  let acc = ref init in
  iter (fun x -> acc := f !acc x) t;
  !acc

let to_array t =
  match t.block_ids with
  | [||] -> [||]
  | ids ->
      let first = Store.read t.store ids.(0) in
      if t.length = 0 then [||]
      else begin
        let out = Array.make t.length first.(0) in
        let pos = ref 0 in
        iter_blocks
          (fun block ->
            Array.blit block 0 out !pos (Array.length block);
            pos := !pos + Array.length block)
          t;
        out
      end

let read_block t i = Store.read t.store t.block_ids.(i)

let iter_range f t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.length then
    invalid_arg "Run.iter_range: out of bounds";
  if len > 0 then begin
    let b = Store.block_size t.store in
    let first = pos / b and last = (pos + len - 1) / b in
    for i = first to last do
      let block = read_block t i in
      let block_lo = i * b in
      let lo = max 0 (pos - block_lo) in
      let hi = min (Array.length block) (pos + len - block_lo) in
      for j = lo to hi - 1 do
        f block.(j)
      done
    done
  end

(* -- persistence -------------------------------------------------- *)

let to_portable t = (t.block_ids, t.length)
let of_portable store (block_ids, length) = { store; block_ids; length }

let portable_codec = Codec.pair (Codec.array Codec.int) Codec.int

type 'a stored = {
  s_blocks : 'a array array;
  s_ids : int array;
  s_len : int;
  s_bsize : int;
  s_cache : int;
}

let to_stored t =
  {
    s_blocks = Store.to_blocks t.store;
    s_ids = t.block_ids;
    s_len = t.length;
    s_bsize = Store.block_size t.store;
    s_cache = Store.cache_blocks t.store;
  }

let of_stored ~stats s =
  let store =
    Store.of_blocks ~stats ~block_size:s.s_bsize ~cache_blocks:s.s_cache
      s.s_blocks
  in
  { store; block_ids = s.s_ids; length = s.s_len }

let stored_codec elt =
  let open Codec in
  map
    ~decode:(fun ((s_blocks, s_ids, s_len), (s_bsize, s_cache)) ->
      { s_blocks; s_ids; s_len; s_bsize; s_cache })
    ~encode:(fun s -> ((s.s_blocks, s.s_ids, s.s_len), (s.s_bsize, s.s_cache)))
    (pair
       (triple (array (array elt)) (array int) int)
       (pair int int))

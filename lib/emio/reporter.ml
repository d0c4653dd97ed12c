type t = { mutable buf : int array; mutable len : int }

let create ?(capacity = 256) () =
  { buf = Array.make (max 16 capacity) 0; len = 0 }

let clear r = r.len <- 0
let length r = r.len

let grow r =
  let bigger = Array.make (2 * Array.length r.buf) 0 in
  Array.blit r.buf 0 bigger 0 r.len;
  r.buf <- bigger

let add r x =
  if r.len = Array.length r.buf then grow r;
  r.buf.(r.len) <- x;
  r.len <- r.len + 1

let mark r = r.len

let truncate r m =
  if m < 0 || m > r.len then invalid_arg "Reporter.truncate: bad mark";
  r.len <- m

let rewrite_from r m f =
  if m < 0 || m > r.len then invalid_arg "Reporter.rewrite_from: bad mark";
  for i = m to r.len - 1 do
    r.buf.(i) <- f r.buf.(i)
  done

let filter_from r m keep =
  if m < 0 || m > r.len then invalid_arg "Reporter.filter_from: bad mark";
  let w = ref m in
  for i = m to r.len - 1 do
    let x = r.buf.(i) in
    if keep x then begin
      r.buf.(!w) <- x;
      incr w
    end
  done;
  r.len <- !w

let fold f init r =
  let acc = ref init in
  for i = 0 to r.len - 1 do
    acc := f !acc r.buf.(i)
  done;
  !acc

let to_list r =
  let rec go i acc = if i < 0 then acc else go (i - 1) (r.buf.(i) :: acc) in
  go (r.len - 1) []

let to_array r = Array.sub r.buf 0 r.len

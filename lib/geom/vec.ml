(** A growable array (amortized O(1) push), shared by the incremental
    geometric constructions. *)

type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let push v x =
  if v.len = Array.length v.data then begin
    let cap = max 8 (2 * Array.length v.data) in
    let bigger = Array.make cap x in
    Array.blit v.data 0 bigger 0 v.len;
    v.data <- bigger
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let push_idx v x =
  push v x;
  v.len - 1

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get: out of bounds";
  v.data.(i)

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let to_array v = Array.sub v.data 0 v.len

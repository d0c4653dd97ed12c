type config = { size : int; unread : bool }

let make size = { size; unread = false }
let inside n = n + 1
let dead n = n - 1
let tested n = n * 2

let opt ?(unused = 0) ?(tested = 0) ?(used = 0) n =
  n + unused + tested + used

(* passing [?unused] here, inside Fix, does not count *)
let size c = inside (opt ~unused:0 c.size)
let opt_passed_on ?(x = 0) () = x

(* [?hook] is passed only here, by [hooked_twice]; [?probe] only from
   test/ *)
let hooked ?(hook = 0) ?(probe = 0) n = n + hook + probe
let hooked_twice n = hooked ~hook:1 (hooked ~hook:1 n)

module Packed = struct
  let f n = n
end

module Applied = struct
  let g n = n
end

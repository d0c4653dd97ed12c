type config = { size : int; unread : bool }

let make size = { size; unread = false }
let inside n = n + 1
let size c = inside c.size
let dead n = n - 1
let tested n = n * 2

module Packed = struct
  let f n = n
end

module Applied = struct
  let g n = n
end

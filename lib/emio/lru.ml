(* Doubly-linked list threaded through a hash table: O(1) touch and
   eviction.  Sentinel nodes avoid option churn at the ends. *)

type node = {
  key : int;
  mutable prev : node;
  mutable next : node;
}

type t = {
  capacity : int;
  table : (int, node) Hashtbl.t;
  head : node; (* sentinel; head.next is most recently used *)
  tail : node; (* sentinel; tail.prev is least recently used *)
}

let make_sentinels () =
  let rec head = { key = min_int; prev = head; next = head } in
  let rec tail = { key = min_int; prev = tail; next = tail } in
  head.next <- tail;
  tail.prev <- head;
  (head, tail)

let create ~capacity =
  if capacity < 0 then invalid_arg "Lru.create: negative capacity";
  let head, tail = make_sentinels () in
  { capacity; table = Hashtbl.create 64; head; tail }

let unlink node =
  node.prev.next <- node.next;
  node.next.prev <- node.prev

let push_front t node =
  node.next <- t.head.next;
  node.prev <- t.head;
  t.head.next.prev <- node;
  t.head.next <- node

let mem t id = Hashtbl.mem t.table id

let size t = Hashtbl.length t.table

let evict_lru t =
  let victim = t.tail.prev in
  if victim != t.head then begin
    unlink victim;
    Hashtbl.remove t.table victim.key;
    Some victim.key
  end
  else None

let touch_report t id =
  if t.capacity = 0 then (false, None)
  else
    match Hashtbl.find_opt t.table id with
    | Some node ->
        unlink node;
        push_front t node;
        (true, None)
    | None ->
        let evicted =
          if Hashtbl.length t.table >= t.capacity then evict_lru t else None
        in
        let rec node = { key = id; prev = node; next = node } in
        push_front t node;
        Hashtbl.add t.table id node;
        (false, evicted)

let touch t id = fst (touch_report t id)

let clear t =
  Hashtbl.reset t.table;
  t.head.next <- t.tail;
  t.tail.prev <- t.head

(** The central structure registry: every {!Index.S} implementation in
    the repo, keyed by name, in registration (Table-1 presentation)
    order.  Seeded from {!Builtin.all} at module initialization. *)

val register : (module Index.S) -> unit
(** Raises [Invalid_argument] on a duplicate name. *)

val names : unit -> string list
val find : string -> (module Index.S) option

val find_exn : string -> (module Index.S)
(** Raises [Invalid_argument] naming the known structures. *)

val all : unit -> (module Index.S) list
val for_dim : int -> (module Index.S) list

val find_by_snapshot_kind :
  string -> ((module Index.S), Diskstore.Snapshot.error) result
(** The registered module whose snapshot format owns [kind]; an
    unowned kind is [Bad_header "no registered structure owns snapshot
    kind ..."]. *)


type t =
  | Heal_without_quiesce
  | Corrupt_replay
  | Reverse_batch
  | Exec_while_offline
  | Skip_fencing_check

let all =
  [
    Heal_without_quiesce;
    Corrupt_replay;
    Reverse_batch;
    Exec_while_offline;
    Skip_fencing_check;
  ]

let name = function
  | Heal_without_quiesce -> "heal-without-quiesce"
  | Corrupt_replay -> "corrupt-replay"
  | Reverse_batch -> "reverse-batch"
  | Exec_while_offline -> "exec-while-offline"
  | Skip_fencing_check -> "skip-fencing-check"

let of_name s = List.find_opt (fun m -> name m = s) all

let describe = function
  | Heal_without_quiesce ->
      "revert the heal-race fix: a pong pushes its repair Sync at once, \
       beside a blocking call still in flight on the channel"
  | Corrupt_replay ->
      "answer replayed requests with a fresh Error instead of the cached \
       reply (breaks replay-cache byte-identity)"
  | Reverse_batch -> "execute Batch ops in reverse submission order"
  | Exec_while_offline ->
      "keep executing requests while the agent process is crashed"
  | Skip_fencing_check ->
      "ignore fencing epochs everywhere: the journal accepts appends \
       from a deposed primary and agents execute stale-fenced requests"

let enabled : (t, unit) Hashtbl.t = Hashtbl.create 4

let enable m = Hashtbl.replace enabled m ()
let disable m = Hashtbl.remove enabled m
let disable_all () = Hashtbl.reset enabled
let on m = Hashtbl.mem enabled m

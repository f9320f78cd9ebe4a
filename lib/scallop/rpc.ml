module Addr = Scallop_util.Addr
module Dd = Av1.Dd

type request =
  | New_meeting of { meeting : int }
  | Register_participant of {
      meeting : int;
      participant : int;
      egress_port : int;
      sends : bool;
    }
  | Register_uplink of {
      meeting : int;
      sender : int;
      port : int;
      video_ssrc : int;
      audio_ssrc : int;
      full_bitrate : int;
      renditions : (int * int) array;
    }
  | Register_leg of {
      meeting : int;
      sender : int;
      uplink_port : int option;
      receiver : int;
      leg_port : int;
      dst : Addr.t;
      adaptive : bool;
    }
  | Remove_participant of { meeting : int; participant : int }
  | Unregister_uplink of { meeting : int; port : int }
  | Set_pair_target of {
      meeting : int;
      sender : int;
      receiver : int;
      target : Dd.decode_target;
    }
  | Ping
  | Batch of request list
  | Sync of request list

type reply =
  | Ack
  | Pong of { epoch : int; digest : Digest.t }
  | Error of string
  | Batch_reply of reply list
  | Stale_fence of { fence : int }

type message =
  | Request of { seq : int; fence : int; request : request }
  | Reply of { seq : int; reply : reply }

exception Decode_error of string

let request_name = function
  | New_meeting _ -> "new-meeting"
  | Register_participant _ -> "register-participant"
  | Register_uplink _ -> "register-uplink"
  | Register_leg _ -> "register-leg"
  | Remove_participant _ -> "remove-participant"
  | Unregister_uplink _ -> "unregister-uplink"
  | Set_pair_target _ -> "set-pair-target"
  | Ping -> "ping"
  | Batch _ -> "batch"
  | Sync _ -> "sync"

let state_op = function
  | New_meeting _ | Register_participant _ | Register_uplink _ | Register_leg _
  | Set_pair_target _ ->
      true
  | Remove_participant _ | Unregister_uplink _ | Ping | Batch _ | Sync _ -> false

(* --- wire codec --------------------------------------------------------------

   Space-separated text, one message per datagram: a direction tag, the
   sequence number, for a request its fence, then the operation name and
   the operation's fields in declaration order. Textual like the SDP path
   so control traffic is inspectable in traces and its wire size is
   honest. *)

let bool_field b = if b then "1" else "0"

(* Frame one sub-message inside a batch: retokenize its encoding (an
   [Error] reply may itself contain spaces) and prefix the token count,
   so the flat outer field list parses unambiguously. Splitting the
   joined fields is an isomorphism, so round-trips are exact. *)
let framed fields =
  let tokens = String.split_on_char ' ' (String.concat " " fields) in
  string_of_int (List.length tokens) :: tokens

let rec encode_request r =
  match r with
  | New_meeting { meeting } -> [ "new-meeting"; string_of_int meeting ]
  | Register_participant { meeting; participant; egress_port; sends } ->
      [
        "register-participant";
        string_of_int meeting;
        string_of_int participant;
        string_of_int egress_port;
        bool_field sends;
      ]
  | Register_uplink
      { meeting; sender; port; video_ssrc; audio_ssrc; full_bitrate; renditions } ->
      [
        "register-uplink";
        string_of_int meeting;
        string_of_int sender;
        string_of_int port;
        string_of_int video_ssrc;
        string_of_int audio_ssrc;
        string_of_int full_bitrate;
        string_of_int (Array.length renditions);
      ]
      @ List.concat_map
          (fun (ssrc, bitrate) -> [ string_of_int ssrc; string_of_int bitrate ])
          (Array.to_list renditions)
  | Register_leg { meeting; sender; uplink_port; receiver; leg_port; dst; adaptive } ->
      [
        "register-leg";
        string_of_int meeting;
        string_of_int sender;
        string_of_int (Option.value uplink_port ~default:(-1));
        string_of_int receiver;
        string_of_int leg_port;
        string_of_int dst.Addr.ip;
        string_of_int dst.Addr.port;
        bool_field adaptive;
      ]
  | Remove_participant { meeting; participant } ->
      [ "remove-participant"; string_of_int meeting; string_of_int participant ]
  | Unregister_uplink { meeting; port } ->
      [ "unregister-uplink"; string_of_int meeting; string_of_int port ]
  | Set_pair_target { meeting; sender; receiver; target } ->
      [
        "set-pair-target";
        string_of_int meeting;
        string_of_int sender;
        string_of_int receiver;
        string_of_int (Dd.index_of_target target);
      ]
  | Ping -> [ "ping" ]
  | Batch ops -> encode_list "batch" ops
  | Sync ops -> encode_list "sync" ops

and encode_list name ops =
  name
  :: string_of_int (List.length ops)
  :: List.concat_map (fun op -> framed (encode_request op)) ops

let rec encode_reply = function
  | Ack -> [ "ack" ]
  | Pong { epoch; digest } -> [ "pong"; string_of_int epoch; Digest.to_hex digest ]
  | Error msg -> [ "error"; msg ]
  | Stale_fence { fence } -> [ "stale-fence"; string_of_int fence ]
  | Batch_reply replies ->
      "batch-reply"
      :: string_of_int (List.length replies)
      :: List.concat_map (fun r -> framed (encode_reply r)) replies

let encode msg =
  let fields =
    match msg with
    | Request { seq; fence; request } ->
        "req" :: string_of_int seq :: string_of_int fence :: encode_request request
    | Reply { seq; reply } -> "rep" :: string_of_int seq :: encode_reply reply
  in
  Bytes.of_string (String.concat " " fields)

let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

let int_field name s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> fail "bad %s field %S" name s

let target_field s =
  match Dd.target_of_index (int_field "target" s) with
  | target -> target
  | exception Invalid_argument _ -> fail "bad target field %S" s

let bool_of_field name = function
  | "0" -> false
  | "1" -> true
  | s -> fail "bad %s field %S" name s

(* Parse [count] token-count-prefixed groups, consuming the whole list
   (a batch is always the last element of its message). *)
let framed_groups name count tokens =
  let rec take k acc rest =
    if k = 0 then (List.rev acc, rest)
    else
      match rest with
      | tok :: tl -> take (k - 1) (tok :: acc) tl
      | [] -> fail "truncated %s frame" name
  in
  let rec go n tokens acc =
    if n = 0 then
      if tokens = [] then List.rev acc else fail "%s: trailing tokens" name
    else
      match tokens with
      | len :: rest ->
          let len = int_field (name ^ " frame length") len in
          if len < 0 then fail "%s: negative frame length" name;
          let group, rest = take len [] rest in
          go (n - 1) rest (group :: acc)
      | [] -> fail "truncated %s" name
  in
  go count tokens []

let rec decode_request = function
  | [ "new-meeting"; m ] -> New_meeting { meeting = int_field "meeting" m }
  | [ "register-participant"; m; p; e; s ] ->
      Register_participant
        {
          meeting = int_field "meeting" m;
          participant = int_field "participant" p;
          egress_port = int_field "egress_port" e;
          sends = bool_of_field "sends" s;
        }
  | "register-uplink" :: m :: s :: port :: v :: a :: f :: n :: rest ->
      let n = int_field "renditions" n in
      if List.length rest <> 2 * n then fail "register-uplink: rendition count mismatch";
      let rec pairs = function
        | [] -> []
        | ssrc :: bitrate :: tl ->
            (int_field "rendition ssrc" ssrc, int_field "rendition bitrate" bitrate)
            :: pairs tl
        | [ _ ] -> fail "register-uplink: odd rendition list"
      in
      Register_uplink
        {
          meeting = int_field "meeting" m;
          sender = int_field "sender" s;
          port = int_field "port" port;
          video_ssrc = int_field "video_ssrc" v;
          audio_ssrc = int_field "audio_ssrc" a;
          full_bitrate = int_field "full_bitrate" f;
          renditions = Array.of_list (pairs rest);
        }
  | [ "register-leg"; m; s; up; r; lp; ip; port; ad ] ->
      let up = int_field "uplink_port" up in
      Register_leg
        {
          meeting = int_field "meeting" m;
          sender = int_field "sender" s;
          uplink_port = (if up < 0 then None else Some up);
          receiver = int_field "receiver" r;
          leg_port = int_field "leg_port" lp;
          dst = Addr.v (int_field "dst ip" ip) (int_field "dst port" port);
          adaptive = bool_of_field "adaptive" ad;
        }
  | [ "remove-participant"; m; p ] ->
      Remove_participant
        { meeting = int_field "meeting" m; participant = int_field "participant" p }
  | [ "unregister-uplink"; m; p ] ->
      Unregister_uplink { meeting = int_field "meeting" m; port = int_field "port" p }
  | [ "set-pair-target"; m; s; r; t ] ->
      Set_pair_target
        {
          meeting = int_field "meeting" m;
          sender = int_field "sender" s;
          receiver = int_field "receiver" r;
          target = target_field t;
        }
  | [ "ping" ] -> Ping
  | "batch" :: n :: rest ->
      Batch (List.map decode_request (framed_groups "batch" (int_field "batch size" n) rest))
  | "sync" :: n :: rest ->
      Sync
        (List.map
           (fun tokens ->
             let op = decode_request tokens in
             if not (state_op op) then
               fail "sync: %s cannot be a sync member" (request_name op);
             op)
           (framed_groups "sync" (int_field "sync size" n) rest))
  | op :: _ -> fail "unknown or malformed request %S" op
  | [] -> fail "empty request"

let rec decode_reply = function
  | [ "ack" ] -> Ack
  | [ "pong"; e; d ] ->
      let digest =
        match Digest.from_hex d with
        | digest -> digest
        | exception Invalid_argument _ -> fail "bad digest field %S" d
      in
      Pong { epoch = int_field "epoch" e; digest }
  | [ "stale-fence"; f ] -> Stale_fence { fence = int_field "fence" f }
  | "batch-reply" :: n :: rest ->
      Batch_reply
        (List.map decode_reply (framed_groups "batch-reply" (int_field "batch size" n) rest))
  | "error" :: rest -> Error (String.concat " " rest)
  | op :: _ -> fail "unknown or malformed reply %S" op
  | [] -> fail "empty reply"

let decode bytes =
  match String.split_on_char ' ' (Bytes.to_string bytes) with
  | "req" :: seq :: fence :: rest ->
      Request
        {
          seq = int_field "seq" seq;
          fence = int_field "fence" fence;
          request = decode_request rest;
        }
  | "rep" :: seq :: rest -> Reply { seq = int_field "seq" seq; reply = decode_reply rest }
  | tag :: _ -> fail "unknown message tag %S" tag
  | [] -> fail "empty message"

(* Decode targets move under the agent's own layer selection, so they stay
   out; sorting makes the digest independent of registration order. The
   op alone is hashed, never an envelope: state has no fence. *)
let digest ops =
  let registrations =
    List.filter (function Set_pair_target _ -> false | _ -> true) ops
  in
  Digest.string
    (String.concat " " (encode_request (Sync (List.sort compare registrations))))

(** The control-plane API between the controller (tier 1) and a switch
    agent (tier 2) as a first-class message vocabulary (paper §5).

    Each constructor of {!request} mirrors one {!Switch_agent} session
    operation; a request travels inside an envelope ({!message}) that
    carries its sequence number and its sender's fencing epoch, over a
    simulated control link (see {!Rpc_transport}), so control-plane
    latency, loss and failure are visible to experiments instead of
    being a counted-but-free function call. *)

type request =
  | New_meeting of { meeting : int }
      (** bring a meeting up on the agent under the id the controller
          chose (its own meeting id); answered with {!Ack}, or {!Error}
          when the id is negative or already held *)
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
      renditions : (int * int) array;  (** simulcast (ssrc, bitrate), best first *)
    }
  | Register_leg of {
      meeting : int;
      sender : int;
      uplink_port : int option;
      receiver : int;
      leg_port : int;
      dst : Scallop_util.Addr.t;
      adaptive : bool;
    }
  | Remove_participant of { meeting : int; participant : int }
  | Unregister_uplink of { meeting : int; port : int }
  | Set_pair_target of {
      meeting : int;
      sender : int;
      receiver : int;
      target : Av1.Dd.decode_target;
    }
  | Ping
      (** controller heartbeat; answered with {!Pong} carrying the
          agent's restart epoch and the {!digest} of its registration
          state, which the controller compares against its intent *)
  | Batch of request list
      (** an ordered list of operations shipped under a single sequence
          number and executed in list order; answered by {!Batch_reply}
          with one reply per op in the same order. Because the whole
          batch shares one seq, the agent's reply cache makes batch
          replay idempotent exactly like a single op: a retransmitted
          batch replays the cached reply list without re-executing any
          member. Nesting is permitted by the codec but the controller
          never sends it. *)
  | Sync of request list
      (** a switch's whole desired state: per meeting (ascending id) its
          [New_meeting], [Register_participant]s, [Register_uplink]s,
          [Register_leg]s and [Set_pair_target]s. The agent diffs it
          against its own shadow and converges in one step: meetings not
          listed are dropped, registrations that differ are removed and
          registered again, and entries that already match are left
          alone, so their data-plane state keeps running. Applying the
          same [Sync] twice changes nothing. Members must satisfy
          {!state_op}; the codec rejects anything else. Answered with
          {!Ack}, or {!Error} if a member cannot be applied. *)

type reply =
  | Ack  (** a session mutation or [Sync] succeeded *)
  | Pong of { epoch : int; digest : Digest.t }
      (** answers [Ping]: the agent's restart epoch and the {!digest} of
          its registration state *)
  | Error of string
      (** the agent rejected the request (e.g. unknown meeting); carried
          back as data, not an exception, so it survives the wire *)
  | Batch_reply of reply list
      (** answers [Batch]: the i-th element answers the i-th op; a
          failed op contributes its [Error] in place while later ops
          still execute (partial failure is per-op, never all-or-nothing) *)
  | Stale_fence of { fence : int }
      (** the agent refused a request because its envelope carries a
          fence below the highest one the agent has seen ([fence] is the
          agent's current one); the sender is deposed and must stop
          acting as primary *)

type message =
  | Request of { seq : int; fence : int; request : request }
      (** every request travels under its sender's fencing epoch: the
          agent executes it only if [fence] is at least the highest
          fence it has ever observed, and answers {!Stale_fence}
          otherwise — how a deposed primary's in-flight or retransmitted
          ops are kept from double-executing after a failover *)
  | Reply of { seq : int; reply : reply }
      (** a reply echoes its request's [seq]; retransmitted requests
          reuse their original [seq], which is what lets the agent
          replay cached replies instead of re-executing (at-most-once
          execution under at-least-once delivery) *)

exception Decode_error of string

val request_name : request -> string

val state_op : request -> bool
(** The requests that describe state and so may be members of a [Sync]:
    [New_meeting], the three [Register_*] and [Set_pair_target]. *)

val digest : request list -> Digest.t
(** The digest a [Pong] carries: MD5 over the encoded (envelope-free,
    so fence-free), sorted list of the registration ops (meetings, members, uplinks, legs with their
    [dst]). [Set_pair_target]s are left out, because the agent's own
    layer selection moves decode targets. The agent hashes the ops that
    would rebuild its shadow and the controller the [Sync] it would
    send, so the two agree exactly when the registrations do. *)

val encode : message -> bytes
(** Space-separated textual wire format (inspectable, honestly sized).
    Batch and sync members are framed recursively with token-count
    prefixes, so sub-messages whose fields contain spaces (an [Error]
    text) still round-trip exactly. *)

val decode : bytes -> message
(** @raise Decode_error on malformed input, including an out-of-range
    decode target and a [sync] member that fails {!state_op}. *)

(* One run of one benchmark workload, in this process only.

   perfbench.exe --workload NAME --seed N [--trace 0|1]

   The program builds the workload's inputs from the seed, sets up the
   Scallop stack, drives the timed window, checks the outputs, and prints
   one JSON object on its last line. [run.py] beside this file launches a
   fresh process per repetition (so the process-wide heap high-water mark
   and the first-touch heap growth belong to one workload run), compares
   the repetitions and prints the benchmark's metrics.

   Two kinds of numbers come out. [virtual] holds everything measured in
   simulated time, plus the counts: a seed reproduces them byte for byte,
   with or without tracing. Wall-clock numbers ([e2e], [layers]) are
   measured, so they differ from run to run.

   With [--trace 1] the window is driven event by event through
   [Engine.step] so each event can be timed, clients' hooks keep bounded
   copies of the traffic, and after the window the copies are replayed
   through the data plane and the receive path to time those layers on
   their own. None of that feeds back into the simulation. *)

module Engine = Netsim.Engine
module Network = Netsim.Network
module Link = Netsim.Link
module Dgram = Netsim.Dgram
module Addr = Scallop_util.Addr
module Rng = Scallop_util.Rng
module Stats = Scallop_util.Stats
module Histogram = Scallop_util.Stats.Histogram
module Controller = Scallop.Controller
module Dataplane = Scallop.Dataplane
module Trees = Scallop.Trees
module Common = Experiments.Common
module Client = Webrtc.Client
module Qoe = Scallop_obs.Qoe
module Dataset = Trace.Dataset

let clock_ns () = Int64.to_int (Monotonic_clock.now ())
let process_start_ns = clock_ns ()
let start_heap_words = (Gc.quick_stat ()).Gc.heap_words

(* ---- JSON output ---------------------------------------------------- *)

type json =
  | F of float
  | I of int
  | S of string
  | B of bool
  | O of (string * json) list
  | L of json list

let rec emit b = function
  | F f ->
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
      else Buffer.add_string b "null"
  | I i -> Buffer.add_string b (string_of_int i)
  | S s ->
      Buffer.add_char b '"';
      String.iter
        (function
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char b c)
        s;
      Buffer.add_char b '"'
  | B x -> Buffer.add_string b (if x then "true" else "false")
  | O kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          emit b (S k);
          Buffer.add_char b ':';
          emit b v)
        kvs;
      Buffer.add_char b '}'
  | L xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          emit b v)
        xs;
      Buffer.add_char b ']'

(* ---- GC pauses, from the runtime's own event ring ------------------- *)

(* A pause is an interval during which one of the stop-the-world GC
   phases below is open; nested phases count once. The ring is polled
   often enough (every few thousand events, after every controller call)
   that it does not wrap; [lost] reports it if it ever did. *)
module Gc_pauses = struct
  let depth = ref 0
  let began = ref 0L
  let total_ns = ref 0L
  let max_ns = ref 0L
  let count = ref 0
  let lost = ref 0
  let cursor = ref None

  let is_pause = function
    | Runtime_events.EV_MINOR | EV_MAJOR_SLICE | EV_MAJOR_FINISH_CYCLE | EV_STW_LEADER
    | EV_EXPLICIT_GC_MINOR | EV_EXPLICIT_GC_MAJOR | EV_EXPLICIT_GC_FULL_MAJOR
    | EV_EXPLICIT_GC_COMPACT | EV_EXPLICIT_GC_MAJOR_SLICE ->
        true
    | _ -> false

  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ ts phase ->
        if is_pause phase then begin
          if !depth = 0 then began := Runtime_events.Timestamp.to_int64 ts;
          incr depth
        end)
      ~runtime_end:(fun _ ts phase ->
        if is_pause phase && !depth > 0 then begin
          decr depth;
          if !depth = 0 then begin
            let d = Int64.sub (Runtime_events.Timestamp.to_int64 ts) !began in
            total_ns := Int64.add !total_ns d;
            if d > !max_ns then max_ns := d;
            incr count
          end
        end)
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let start () =
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None)

  let poll () =
    match !cursor with
    | None -> ()
    | Some c -> ignore (Runtime_events.read_poll c callbacks None)

  let stop () =
    poll ();
    Option.iter Runtime_events.free_cursor !cursor;
    cursor := None;
    Runtime_events.pause ()
end

(* ---- measurement context -------------------------------------------- *)

type traffic = {
  mutable tx_rtp : int;  (** RTP datagrams clients sent, retransmissions included *)
  mutable tx_rtcp : int;
  mutable tx_other : int;
  mutable rx_pkts : int;
}

(* Bounded copies taken in the traced run once [armed], a third of the
   way into the window: switch-bound datagrams for the data-plane
   replay, and whole video receive streams for the receive-path replay.
   Copies, because the data plane recycles pooled buffers as soon as a
   handler returns. *)
type capture = {
  mutable armed : bool;
  mutable dp_dgrams : Dgram.t list;  (** newest first *)
  mutable dp_n : int;
  rx_streams : (int * int, (int * bytes) list ref) Hashtbl.t;
  mutable rx_n : int;
  mutable layout : layout option;
}

and layout = {
  uplinks : Dataplane.uplink_view list;
  legs : Dataplane.leg_view list;
}

let dp_capture_cap = 20_000
let rx_capture_streams = 6
let rx_capture_cap = 30_000

type ctx = {
  traced : bool;
  events_hist : Histogram.t;
  mutable events : int;
  mutable span_ns : int;  (** wall time inside the window's layer spans *)
  mutable in_window : bool;
  mutable ctrl_wall_us : float list;  (** every controller call *)
  mutable ctrl_virt_ms : float list;  (** controller calls inside the window *)
  mutable ctrl_failed : int;
  mutable ctrl_errors : string list;
  conns : (int * int, unit) Hashtbl.t;  (** connections ever opened, by local address *)
  traffic : traffic;
  capture : capture;
}

let make_ctx ~traced =
  {
    traced;
    events_hist =
      Histogram.create ~bounds:(Histogram.log_bounds ~lo:10.0 ~hi:1e10 ~per_decade:40) ();
    events = 0;
    span_ns = 0;
    in_window = false;
    ctrl_wall_us = [];
    ctrl_virt_ms = [];
    ctrl_failed = 0;
    ctrl_errors = [];
    conns = Hashtbl.create 1024;
    traffic = { tx_rtp = 0; tx_rtcp = 0; tx_other = 0; rx_pkts = 0 };
    capture =
      {
        armed = false;
        dp_dgrams = [];
        dp_n = 0;
        rx_streams = Hashtbl.create 16;
        rx_n = 0;
        layout = None;
      };
  }

(* One controller call: wall time always (the end-to-end [ctrl_ops_per_s]
   needs it), virtual latency inside the window. A call that raises — a
   control channel that gave up included — is a failed operation. *)
let ctrl ctx engine what f =
  let v0 = Engine.now engine in
  let w0 = clock_ns () in
  let r =
    match f () with
    | x -> Some x
    | exception e ->
        ctx.ctrl_failed <- ctx.ctrl_failed + 1;
        if List.length ctx.ctrl_errors < 5 then
          ctx.ctrl_errors <- (what ^ ": " ^ Printexc.to_string e) :: ctx.ctrl_errors;
        None
  in
  let w = clock_ns () - w0 in
  ctx.ctrl_wall_us <- (float_of_int w /. 1e3) :: ctx.ctrl_wall_us;
  if ctx.in_window then begin
    ctx.ctrl_virt_ms <- (float_of_int (Engine.now engine - v0) /. 1e6) :: ctx.ctrl_virt_ms;
    ctx.span_ns <- ctx.span_ns + w
  end;
  if ctx.traced then Gc_pauses.poll ();
  r

(* Advance the simulation to [until]. Untraced, that is one
   [Engine.run]; traced, the same events are taken one [Engine.step] at a
   time so each can be timed. Both leave the clock at [until]. *)
let advance ctx engine ~until =
  if not ctx.traced then Engine.run engine ~until
  else begin
    let rec loop () =
      let t0 = clock_ns () in
      if Engine.step engine ~until then begin
        let d = clock_ns () - t0 in
        Histogram.observe ctx.events_hist (float_of_int d);
        ctx.events <- ctx.events + 1;
        ctx.span_ns <- ctx.span_ns + d;
        if ctx.events land 4095 = 0 then Gc_pauses.poll ();
        loop ()
      end
    in
    loop ();
    Engine.run engine ~until
  end

let is_video_rtp payload =
  Bytes.length payload >= 12 && Char.code (Bytes.get payload 1) land 0x7f = 96

let hook_client ctx client =
  let tr = ctx.traffic and cap = ctx.capture in
  Client.set_tx_hook client (fun ~time_ns:_ (d : Dgram.t) ->
      (match Rtp.Demux.classify d.payload with
      | Rtp.Demux.Rtp_media -> tr.tx_rtp <- tr.tx_rtp + 1
      | Rtp.Demux.Rtcp_feedback -> tr.tx_rtcp <- tr.tx_rtcp + 1
      | Rtp.Demux.Stun_packet | Rtp.Demux.Unknown -> tr.tx_other <- tr.tx_other + 1);
      if cap.armed && cap.dp_n < dp_capture_cap then begin
        cap.dp_dgrams <- Dgram.v ~src:d.src ~dst:d.dst (Bytes.copy d.payload) :: cap.dp_dgrams;
        cap.dp_n <- cap.dp_n + 1
      end);
  Client.set_rx_hook client (fun ~time_ns (d : Dgram.t) ->
      tr.rx_pkts <- tr.rx_pkts + 1;
      if cap.armed && cap.rx_n < rx_capture_cap && is_video_rtp d.payload then begin
        let key = (d.dst.Addr.ip, d.dst.Addr.port) in
        let slot =
          match Hashtbl.find_opt cap.rx_streams key with
          | Some l -> Some l
          | None when Hashtbl.length cap.rx_streams < rx_capture_streams ->
              let l = ref [] in
              Hashtbl.replace cap.rx_streams key l;
              Some l
          | None -> None
        in
        Option.iter
          (fun l ->
            l := (time_ns, Bytes.copy d.payload) :: !l;
            cap.rx_n <- cap.rx_n + 1)
          slot
      end)

let note_connections ctx clients =
  List.iter
    (fun c ->
      List.iter
        (fun conn ->
          let a = Client.local_addr conn in
          Hashtbl.replace ctx.conns (a.Addr.ip, a.Addr.port) ())
        (Client.connections c))
    clients

(* ---- percentiles ---------------------------------------------------- *)

let percentile_list xs p =
  match xs with
  | [] -> 0.0
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      Stats.percentile_of_array a p

(* Percentile of several histograms that share bucket bounds (every QoE
   collector's m2e histogram does), pooled bucket by bucket, with linear
   interpolation inside the bucket as [Histogram.percentile] does. *)
let pooled_percentile hists p =
  let hists = List.filter (fun h -> Histogram.count h > 0) hists in
  match hists with
  | [] -> 0.0
  | h0 :: _ ->
      let les = ref [] in
      Histogram.iter_buckets h0 (fun ~le ~count:_ -> les := le :: !les);
      let les = Array.of_list (List.rev !les) in
      let counts = Array.make (Array.length les) 0 in
      List.iter
        (fun h ->
          let i = ref 0 and prev = ref 0 in
          Histogram.iter_buckets h (fun ~le:_ ~count ->
              counts.(!i) <- counts.(!i) + (count - !prev);
              prev := count;
              incr i))
        hists;
      let lo = List.fold_left (fun a h -> Float.min a (Histogram.min h)) infinity hists in
      let hi = List.fold_left (fun a h -> Float.max a (Histogram.max h)) neg_infinity hists in
      let total = Array.fold_left ( + ) 0 counts in
      let rank = p /. 100.0 *. float_of_int total in
      let rec find i cum =
        let c = counts.(i) in
        if i = Array.length counts - 1 || float_of_int (cum + c) >= rank then (i, cum, c)
        else find (i + 1) (cum + c)
      in
      let i, cum, c = find 0 0 in
      let b_lo = if i = 0 then lo else Float.max lo les.(i - 1) in
      let b_hi = Float.min hi les.(i) in
      let frac = if c = 0 then 0.0 else (rank -. float_of_int cum) /. float_of_int c in
      Float.min hi (Float.max lo (b_lo +. (frac *. (b_hi -. b_lo))))

(* ---- receive streams ------------------------------------------------ *)

type stream = {
  s_recv : Codec.Video_receiver.t;
  s_start : int;
  mutable s_end : int;
  mutable s_frames : int;
}

(* Every (receiver, sender) video stream, from the moment the controller
   set it up to the leave that ended it (or the end of the window), so
   decoded fps is taken over the stream's own lifetime. *)
type streams = {
  live : (int * int, stream) Hashtbl.t;
  mutable closed : stream list;
  sends : (int, Client.connection) Hashtbl.t;  (** sender pid → uplink *)
}

let make_streams () = { live = Hashtbl.create 256; closed = []; sends = Hashtbl.create 64 }

let open_streams st controller engine ~pid ~others =
  let now = Engine.now engine in
  let add rx tx =
    match Controller.recv_connection controller rx ~from:tx with
    | None -> ()
    | Some conn ->
        Option.iter
          (fun r ->
            Hashtbl.replace st.live (rx, tx)
              { s_recv = r; s_start = now; s_end = now; s_frames = 0 })
          (Client.receiver conn)
  in
  List.iter
    (fun q ->
      add pid q;
      add q pid)
    others;
  Option.iter (fun c -> Hashtbl.replace st.sends pid c) (Controller.send_connection controller pid)

let close_stream st engine key s =
  s.s_end <- Engine.now engine;
  s.s_frames <- Codec.Video_receiver.frames_decoded s.s_recv;
  st.closed <- s :: st.closed;
  Hashtbl.remove st.live key

let close_streams st engine keep =
  let keys = Hashtbl.fold (fun k _ acc -> if keep k then k :: acc else acc) st.live [] in
  List.iter (fun k -> close_stream st engine k (Hashtbl.find st.live k)) (List.sort compare keys)

let stream_fps s =
  let life = float_of_int (s.s_end - s.s_start) /. 1e9 in
  if life <= 0.0 then 0.0 else float_of_int s.s_frames /. life

(* ---- layer replays (traced run only) -------------------------------- *)

let snapshot_layout dp =
  { uplinks = Dataplane.uplinks_view dp; legs = Dataplane.legs_view dp }

(* Rebuild the captured switch's table layout in a fresh data plane,
   through its own table-write API, and time [Network.send] +
   [Engine.run] for each captured ingress datagram. Every address the
   replay can reach is a host whose wildcard handler ignores the
   datagram, so the network layer releases each pooled replica right
   after it. *)
let replay_dataplane layout dgrams =
  let engine = Engine.create () in
  let network = Network.create engine (Rng.create 1) in
  let sfu = Addr.ip_of_string "10.0.0.1" in
  Network.add_host network ~ip:sfu ~uplink:Common.fast_link ~downlink:Common.fast_link ();
  let dp = Dataplane.create engine network ~ip:sfu ~obs_label:"perfbench-replay" () in
  let trees = Dataplane.trees dp in
  let handles = Hashtbl.create 16 in
  List.iter
    (fun (u : Dataplane.uplink_view) ->
      let id = Trees.handle_id u.uv_meeting in
      if not (Hashtbl.mem handles id) then
        Hashtbl.replace handles id
          (Trees.register_meeting trees (Trees.design_of u.uv_meeting)
             ~participants:(Trees.participants u.uv_meeting)
             ~senders:(Trees.senders u.uv_meeting)))
    layout.uplinks;
  List.iter
    (fun (u : Dataplane.uplink_view) ->
      Dataplane.register_uplink ~renditions:u.uv_renditions dp ~port:u.uv_port
        ~sender:u.uv_sender
        ~meeting:(Hashtbl.find handles (Trees.handle_id u.uv_meeting))
        ~video_ssrc:u.uv_video_ssrc ~audio_ssrc:u.uv_audio_ssrc)
    layout.uplinks;
  let hosts = Hashtbl.create 64 in
  let host ip =
    if ip <> sfu && not (Hashtbl.mem hosts ip) then begin
      Hashtbl.replace hosts ip ();
      Network.add_host network ~ip ~uplink:Common.fast_link ~downlink:Common.fast_link ();
      Network.bind_host network ~ip ignore
    end
  in
  List.iter
    (fun (l : Dataplane.leg_view) ->
      let audio =
        match List.filter (fun s -> s <> l.lv_video_ssrc) l.lv_ssrc_keys with
        | a :: _ -> a
        | [] -> l.lv_video_ssrc + 1
      in
      Dataplane.register_leg dp ~receiver:l.lv_receiver ~video_ssrc:l.lv_video_ssrc
        ~audio_ssrc:audio ~dst:l.lv_dst ~src_port:l.lv_src_port ~uplink_port:l.lv_uplink_port
        ~rewrite:(if l.lv_stream_index >= 0 then Some Scallop.Seq_rewrite.S_LM else None);
      Dataplane.set_leg_target dp ~receiver:l.lv_receiver ~video_ssrc:l.lv_video_ssrc
        l.lv_target;
      host l.lv_dst.Addr.ip)
    layout.legs;
  List.iter (fun (d : Dgram.t) -> host d.src.Addr.ip) dgrams;
  let t0 = clock_ns () in
  List.iter
    (fun d ->
      Network.send network d;
      Engine.run engine)
    dgrams;
  let wall = clock_ns () - t0 in
  let n = List.length dgrams in
  let replicas = Dataplane.egress_pkts dp in
  ( float_of_int wall /. float_of_int (max 1 n),
    float_of_int wall /. float_of_int (max 1 replicas),
    n,
    replicas,
    (Dataplane.pool_stats dp).Scallop_util.Bufpool.live )

(* Replay captured video receive streams through the receive path a
   client runs per packet: parse, decode model, congestion estimator. *)
let replay_rx streams =
  let total = ref 0 and n = ref 0 in
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) streams []) in
  List.iter
    (fun k ->
      let pkts = Array.of_list (List.rev !(Hashtbl.find streams k)) in
      if Array.length pkts > 0 then begin
        let ssrc = (Rtp.Packet.parse (snd pkts.(0))).Rtp.Packet.ssrc in
        let rx = Codec.Video_receiver.create ~ssrc () in
        let est = Gcc.Estimator.create () in
        let t0 = clock_ns () in
        Array.iter
          (fun (time_ns, buf) ->
            let p = Rtp.Packet.parse buf in
            Codec.Video_receiver.receive rx ~time_ns p;
            Gcc.Estimator.on_packet est ~time_ns ~rtp_ts:p.Rtp.Packet.timestamp
              ~size:(Bytes.length buf))
          pkts;
        total := !total + (clock_ns () - t0);
        n := !n + Array.length pkts
      end)
    keys;
  (float_of_int !total /. float_of_int (max 1 !n), !n)

(* ---- shared result assembly ----------------------------------------- *)

type check = { c_name : string; c_ok : bool; c_detail : string }

let check name ok detail = { c_name = name; c_ok = ok; c_detail = detail }

type outcome = {
  virt : (string * json) list;  (** deterministic for a seed *)
  sim_s : float;  (** simulated seconds the window covered *)
  window_s : float;  (** wall seconds of the timed window *)
  setup_s : float;
  peak_heap_mb : float;
  ctrl_wall_us : float list;  (** controller calls of set-up and window *)
  report : (string * float * string) list;  (** workload-specific end-to-end metrics *)
  layers : (string * float * string) list;
  checks : check list;
  attempted : int;
  failed : int;
}

let share a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let verify_check controller =
  let errors = Scallop_analysis.errors (Scallop_analysis.verify controller) in
  check "verify" (errors = [])
    (if errors = [] then "no errors"
     else Printf.sprintf "%d error(s): %s" (List.length errors) (Scallop_analysis.report errors))

(* Let every in-flight datagram land once the clients are gone; the
   replica pool must then have no buffer checked out. *)
let drain_check engine dps =
  Engine.run engine ~max_events:20_000_000;
  let live = List.fold_left (fun a dp -> a + (Dataplane.pool_stats dp).Scallop_util.Bufpool.live) 0 dps in
  check "pool_drained"
    (live = 0 && Engine.pending engine = 0)
    (Printf.sprintf "%d replica buffer(s) live, %d event(s) pending" live (Engine.pending engine))

(* Counters every workload reports the same way. *)
let common_counts (ctx : ctx) controller dps =
  let cs = Controller.stats controller in
  let agent_calls =
    List.init (Controller.switch_count controller) (fun i ->
        (Scallop.Switch_agent.stats (fst (Controller.switch_agent controller i))).Scallop.Switch_agent.rpc_calls)
    |> List.fold_left ( + ) 0
  in
  let sum f = List.fold_left (fun a dp -> a + f dp) 0 dps in
  let ingress dp =
    let c = Dataplane.ingress_counters dp in
    c.rtp_audio_pkts + c.rtp_video_pkts + c.rtp_av1_ds_pkts + c.rtcp_sr_sdes_pkts
    + c.rtcp_rr_pkts + c.rtcp_remb_pkts + c.stun_pkts + c.other_pkts
  in
  let fp f = sum (fun dp -> f (Dataplane.fastpath_stats dp)) in
  let pool f = sum (fun dp -> f (Dataplane.pool_stats dp)) in
  let ctrl_ops = List.length ctx.ctrl_wall_us in
  [
    ("ctrl.ops", ctrl_ops);
    ("ctrl.failed", ctx.ctrl_failed);
    ("ctrl.wire_requests", cs.control_requests);
    ("ctrl.retries", cs.control_retries);
    ("ctrl.sdp_messages", cs.sdp_messages);
    ("agent.rpc_calls", agent_calls);
    ("dp.ingress_pkts", sum ingress);
    ("dp.egress_replicas", sum Dataplane.egress_pkts);
    ("dp.suppressed", sum Dataplane.replicas_suppressed);
    ("dp.cpu_pkts", sum Dataplane.cpu_pkts);
    ("pre.cache_hits", fp (fun s -> s.fp_cache_hits));
    ("pre.cache_misses", fp (fun s -> s.fp_cache_misses));
    ("pre.cache_invalidations", fp (fun s -> s.fp_cache_invalidations));
    ("pool.recycled", pool (fun s -> s.Scallop_util.Bufpool.recycled));
    ("pool.fresh", pool (fun s -> s.Scallop_util.Bufpool.fresh));
    ("pool.high_water", pool (fun s -> s.Scallop_util.Bufpool.high_water));
    ("client.tx_rtp", ctx.traffic.tx_rtp);
    ("client.tx_rtcp", ctx.traffic.tx_rtcp);
    ("client.tx_other", ctx.traffic.tx_other);
    ("client.rx_pkts", ctx.traffic.rx_pkts);
    ("connections", Hashtbl.length ctx.conns);
  ]

let count name counts = List.assoc name counts

(* Per-layer metrics derived from the counters plus the traced timings.
   [gc] and [ctrl_wall_us] are taken at the end of the window, so the
   runtime and controller figures cover process start to window end. *)
let layer_metrics ctx ~gc ~ctrl_wall_us ~counts ~links ~work ~tx_media ~rtx ~window_wall_ns =
  let c n = count n counts in
  let alloc_words = gc.Gc.minor_words +. gc.Gc.major_words -. gc.Gc.promoted_words in
  let word = float_of_int (Sys.word_size / 8) in
  let link_sent, link_dropped =
    List.fold_left (fun (s, d) l -> (s + Link.sent l, d + Link.dropped l)) (0, 0) links
  in
  let ctrl_ops = c "ctrl.ops" in
  [
    ("engine.events", float_of_int ctx.events, "count");
    ("link.sent", float_of_int link_sent, "count");
    ("link.drop_share", share link_dropped link_sent, "share");
    ("dp.ingress_pkts", float_of_int (c "dp.ingress_pkts"), "count");
    ("dp.egress_replicas", float_of_int (c "dp.egress_replicas"), "count");
    ("dp.replicas_per_ingress", share (c "dp.egress_replicas") (c "dp.ingress_pkts"), "ratio");
    ( "dp.suppressed_share",
      share (c "dp.suppressed") (c "dp.suppressed" + c "dp.egress_replicas"),
      "share" );
    ("dp.cpu_share", share (c "dp.cpu_pkts") (c "dp.ingress_pkts"), "share");
    ( "pre.cache_hit_ratio",
      share (c "pre.cache_hits") (c "pre.cache_hits" + c "pre.cache_misses"),
      "share" );
    ("pre.cache_invalidations", float_of_int (c "pre.cache_invalidations"), "count");
    ("pool.recycle_ratio", share (c "pool.recycled") (c "pool.recycled" + c "pool.fresh"), "share");
    ("pool.high_water", float_of_int (c "pool.high_water"), "count");
    ("client.tx_media", float_of_int tx_media, "count");
    ("client.tx_rtx", float_of_int rtx, "count");
    ("client.tx_rtcp", float_of_int (c "client.tx_rtcp"), "count");
    ("client.rx_pkts", float_of_int (c "client.rx_pkts"), "count");
    ("ctrl.op_wall_us_p50", percentile_list ctrl_wall_us 50.0, "us");
    ("ctrl.op_wall_us_p99", percentile_list ctrl_wall_us 99.0, "us");
    ("ctrl.wire_requests", float_of_int (c "ctrl.wire_requests"), "count");
    ("ctrl.retries", float_of_int (c "ctrl.retries"), "count");
    ("ctrl.rpcs_per_op", share (c "ctrl.wire_requests") ctrl_ops, "rpc/op");
    ("agent.rpc_calls", float_of_int (c "agent.rpc_calls"), "count");
    ("gc.minor", float_of_int gc.Gc.minor_collections, "count");
    ("gc.major", float_of_int gc.Gc.major_collections, "count");
    ("gc.alloc_bytes_per_op", alloc_words *. word /. float_of_int (max 1 work), "B");
    ( "heap.bytes_per_connection",
      float_of_int (gc.Gc.top_heap_words - start_heap_words)
      *. word
      /. float_of_int (max 1 (c "connections")),
      "B" );
    ("gc.pause_ms_total", Int64.to_float !Gc_pauses.total_ns /. 1e6, "ms");
    ("gc.pause_ms_max", Int64.to_float !Gc_pauses.max_ns /. 1e6, "ms");
    ("gc.pauses", float_of_int !Gc_pauses.count, "count");
    ("gc.ring_lost_events", float_of_int !Gc_pauses.lost, "count");
    ("accounted_share", share ctx.span_ns window_wall_ns, "share");
  ]

let peak_heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ---- media workloads ------------------------------------------------ *)

type media_op =
  | Join of { meeting : int; slot : int }
  | Leave of { meeting : int; slot : int }

type media_world = {
  stack : Common.scallop_stack;
  streams : streams;
  pids : (int * int, int) Hashtbl.t;  (** (meeting, slot) → participant *)
  clients : (int * int, Client.t) Hashtbl.t;
  mids : (int, Controller.meeting_id) Hashtbl.t;
  mutable next_index : int;
}

let media_world stack =
  {
    stack;
    streams = make_streams ();
    pids = Hashtbl.create 64;
    clients = Hashtbl.create 64;
    mids = Hashtbl.create 16;
    next_index = 0;
  }

let meeting_clients w meeting =
  Hashtbl.fold (fun (m, _) c acc -> if m = meeting then c :: acc else acc) w.clients []

let media_join ctx w ?downlink ~meeting ~slot () =
  let s = w.stack in
  let mid =
    match Hashtbl.find_opt w.mids meeting with
    | Some mid -> mid
    | None ->
        let mid = Controller.create_meeting s.controller in
        Hashtbl.replace w.mids meeting mid;
        mid
  in
  let client =
    Common.add_client s.engine s.network s.rng ~index:w.next_index ?downlink ()
  in
  w.next_index <- w.next_index + 1;
  hook_client ctx client;
  Hashtbl.replace w.clients (meeting, slot) client;
  let others = Controller.meeting_participants s.controller mid in
  match
    ctrl ctx s.engine "join" (fun () -> Controller.join s.controller mid client ~send_media:true)
  with
  | None -> ()
  | Some pid ->
      Hashtbl.replace w.pids (meeting, slot) pid;
      open_streams w.streams s.controller s.engine ~pid ~others;
      note_connections ctx (meeting_clients w meeting)

let media_leave ctx w ~meeting ~slot =
  match Hashtbl.find_opt w.pids (meeting, slot) with
  | None -> ()
  | Some pid ->
      close_streams w.streams w.stack.engine (fun (rx, tx) -> rx = pid || tx = pid);
      ignore (ctrl ctx w.stack.engine "leave" (fun () -> Controller.leave w.stack.controller pid));
      Hashtbl.remove w.pids (meeting, slot)

(* Run a timed media window over [ops] (each at its offset into the
   window), then check and assemble the outcome. [setup_ns] is the wall
   time from process start to the window. *)
let run_media ctx w ~ops ~window_ns ~setup_ns ~checks_extra =
  let s = w.stack in
  let engine = s.engine in
  let t_virtual0 = Engine.now engine in
  let capture_at = t_virtual0 + (window_ns / 3) in
  let ops = List.stable_sort (fun (a, _) (b, _) -> compare a b) ops in
  let arm () =
    if ctx.traced && not ctx.capture.armed then begin
      ctx.capture.armed <- true;
      ctx.capture.layout <- Some (snapshot_layout s.dp)
    end
  in
  ctx.in_window <- true;
  let w0 = clock_ns () in
  let rec go = function
    | [] -> ()
    | (at, op) :: rest ->
        let at = t_virtual0 + at in
        if at >= capture_at && Engine.now engine < capture_at then begin
          advance ctx engine ~until:capture_at;
          arm ()
        end;
        advance ctx engine ~until:at;
        (match op with
        | Join { meeting; slot } -> media_join ctx w ~meeting ~slot ()
        | Leave { meeting; slot } -> media_leave ctx w ~meeting ~slot);
        go rest
  in
  go ops;
  let t_end = t_virtual0 + window_ns in
  if Engine.now engine < capture_at then begin
    advance ctx engine ~until:capture_at;
    arm ()
  end;
  advance ctx engine ~until:t_end;
  let window_wall_ns = clock_ns () - w0 in
  ctx.in_window <- false;
  let gc = Gc.quick_stat () and ctrl_wall_us = ctx.ctrl_wall_us in
  let peak = peak_heap_mb () in
  if ctx.traced then Gc_pauses.stop ();
  close_streams w.streams engine (fun _ -> true);
  let verify = verify_check s.controller in
  (* virtual-time end-to-end metrics *)
  let streams = w.streams.closed in
  let fps = List.map stream_fps streams in
  let n_streams = List.length streams in
  let fps_mean = if n_streams = 0 then 0.0 else List.fold_left ( +. ) 0.0 fps /. float_of_int n_streams in
  let fps_min = List.fold_left Float.min infinity fps in
  let dead = List.length (List.filter (fun st -> st.s_frames = 0) streams) in
  let m2e =
    List.filter_map
      (fun q -> if (Qoe.key_of q).k_kind = Qoe.Video then Some (Qoe.m2e_histogram q) else None)
      (Qoe.all ())
  in
  let m2e_p50 = pooled_percentile m2e 50.0 and m2e_p99 = pooled_percentile m2e 99.0 in
  let rtx = Hashtbl.fold (fun _ c a -> a + Client.retransmissions c) w.streams.sends 0 in
  let counts = common_counts ctx s.controller [ s.dp ] in
  let tx_media = count "client.tx_rtp" counts - rtx in
  let virt_ms = ctx.ctrl_virt_ms in
  let links =
    Hashtbl.fold
      (fun _ c acc ->
        let ip = Client.ip c in
        Network.uplink s.network ~ip :: Network.downlink s.network ~ip :: acc)
      w.clients []
  in
  let link_sent = List.fold_left (fun a l -> a + Link.sent l) 0 links in
  let link_dropped = List.fold_left (fun a l -> a + Link.dropped l) 0 links in
  let sim_s = Engine.to_sec (t_end - t_virtual0) in
  let report =
    [
      ("decoded_fps_mean", fps_mean, "fps");
      ("decoded_fps_min", fps_min, "fps");
      ("m2e_ms_p50", m2e_p50, "ms");
      ("m2e_ms_p99", m2e_p99, "ms");
      ("rtx_share", share rtx tx_media, "share");
    ]
  in
  let virt =
    List.map (fun (k, v, _) -> (k, F v)) report
    @ List.map (fun (k, v) -> (k, I v)) counts
    @ [
        ("sim_s", F sim_s);
        ("streams", I n_streams);
        ("client.tx_media", I tx_media);
        ("client.tx_rtx", I rtx);
        ("link.sent", I link_sent);
        ("link.dropped", I link_dropped);
        ("ctrl.op_ms_sum", F (List.fold_left ( +. ) 0.0 virt_ms));
        ("m2e_frames", I (List.fold_left (fun a h -> a + Histogram.count h) 0 m2e));
      ]
  in
  (* teardown: everyone leaves, in-flight traffic lands, pool drains *)
  let remaining = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) w.pids []) in
  List.iter (fun (meeting, slot) -> media_leave ctx w ~meeting ~slot) remaining;
  let drained = drain_check engine [ s.dp ] in
  (* an operation is a datagram the data plane sent towards a receiver;
     it fails if a downlink drops it (queue or loss) or nobody is bound
     at its destination any more *)
  let replicas_sent = Dataplane.egress_pkts s.dp in
  let replicas_lost =
    Hashtbl.fold (fun _ c a -> a + Link.dropped (Network.downlink s.network ~ip:(Client.ip c))) w.clients 0
    + Network.undeliverable s.network
  in
  let layers =
    if not ctx.traced then []
    else begin
      let replicas = count "dp.egress_replicas" counts in
      let base =
        layer_metrics ctx ~gc ~ctrl_wall_us ~counts ~links ~work:replicas ~tx_media ~rtx
          ~window_wall_ns
      in
      let pct p = if ctx.events = 0 then 0.0 else Histogram.percentile ctx.events_hist p in
      let dp_ns_in, dp_ns_rep, dp_n, dp_reps, dp_live =
        match ctx.capture.layout with
        | None -> (0.0, 0.0, 0, 0, 0)
        | Some layout -> replay_dataplane layout (List.rev ctx.capture.dp_dgrams)
      in
      let rx_ns, rx_n = replay_rx ctx.capture.rx_streams in
      base
      @ [
          ("engine.event_ns_p50", pct 50.0, "ns");
          ("engine.event_ns_p99", pct 99.0, "ns");
          ("dp.replay_ns_per_ingress", dp_ns_in, "ns");
          ("dp.replay_ns_per_replica", dp_ns_rep, "ns");
          ("dp.replay_ingress", float_of_int dp_n, "count");
          ("dp.replay_replicas", float_of_int dp_reps, "count");
          ("dp.replay_pool_live", float_of_int dp_live, "count");
          ("rx.replay_ns_per_pkt", rx_ns, "ns");
          ("rx.replay_pkts", float_of_int rx_n, "count");
        ]
    end
  in
  let checks =
    [
      verify;
      drained;
      check "streams_decode" (dead = 0 && n_streams > 0)
        (Printf.sprintf "%d of %d receive stream(s) decoded no frame" dead n_streams);
      check "ctrl_ops_ok" (ctx.ctrl_failed = 0) (String.concat "; " ctx.ctrl_errors);
    ]
    @ checks_extra
  in
  {
    virt;
    sim_s;
    window_s = float_of_int window_wall_ns /. 1e9;
    setup_s = float_of_int setup_ns /. 1e9;
    peak_heap_mb = peak;
    ctrl_wall_us;
    report;
    layers;
    checks;
    attempted = replicas_sent;
    failed = replicas_lost;
  }

(* campus-replay — the paper's traffic mix. The seeded campus dataset's
   busiest hour (most participant-time) is compressed into the 10 s window.
   Meetings starting in that hour are taken in start order, capped at
   [campus_cap] members, until the sum of k^2 over the taken meetings
   reaches [campus_budget]. A k-member meeting costs about k uplinks
   plus k(k-1) receive streams, so the budget gives every seed a similar
   load, while the mix of two-party and multi-party meetings follows the
   trace. A meeting's start offset in the hour maps to the first 30% of
   the window; members join 250 ms apart, stay for 65% of the window,
   and leave 250 ms apart, all inside the window, so each join, leave and
   two-party-to-multi-party tree migration lands on the data plane while
   media flows through the same tables. Clean 100 Mb/s access links and
   the ideal control channel keep the feedback loops quiet. Loads: the
   data plane (two-party and multi-party trees side by side, PRE cache
   flushes), links, engine, clients; the controller at its ideal-channel
   cost. *)
let campus_window_s = 10.0
let campus_cap = 4
let campus_budget = 160

let campus_schedule ~seed =
  let ds = Dataset.generate (Rng.create seed) () in
  let hour = 3_600_000_000_000 in
  let hours = (ds.Dataset.horizon_ns / hour) + 1 in
  let load = Array.make hours 0.0 in
  Array.iter
    (fun (m : Dataset.meeting) ->
      let s = m.start_ns and e = m.start_ns + m.duration_ns in
      for h = s / hour to min (hours - 1) ((e - 1) / hour) do
        let lo = max s (h * hour) and hi = min e ((h + 1) * hour) in
        load.(h) <- load.(h) +. (float_of_int m.size *. float_of_int (hi - lo))
      done)
    ds.Dataset.meetings;
  let busiest = ref 0 in
  Array.iteri (fun h l -> if l > load.(!busiest) then busiest := h) load;
  let h0 = !busiest * hour in
  let candidates =
    Array.to_list ds.Dataset.meetings
    |> List.filter (fun (m : Dataset.meeting) -> m.start_ns >= h0)
    |> List.sort (fun (a : Dataset.meeting) b -> compare (a.start_ns, a.id) (b.start_ns, b.id))
  in
  let rec pick budget acc = function
    | [] -> List.rev acc
    | _ when budget < 4 -> List.rev acc
    | (m : Dataset.meeting) :: rest ->
        let k = ref (min campus_cap m.size) in
        while !k * !k > budget do decr k done;
        if !k < 2 then List.rev acc else pick (budget - (!k * !k)) ((m, !k) :: acc) rest
  in
  let picked = pick campus_budget [] candidates in
  let window_ns = Engine.sec campus_window_s in
  let gap = Engine.ms 250 in
  let ops = ref [] in
  List.iteri
    (fun mi ((m : Dataset.meeting), k) ->
      let offset = Float.min 1.0 (float_of_int (m.start_ns - h0) /. float_of_int hour) in
      let t0 = int_of_float (0.3 *. offset *. float_of_int window_ns) in
      let t1 = t0 + int_of_float (0.65 *. float_of_int window_ns) in
      for j = 0 to k - 1 do
        ops := (t0 + (j * gap), Join { meeting = mi; slot = j }) :: !ops;
        ops := (t1 + (j * gap), Leave { meeting = mi; slot = j }) :: !ops
      done)
    picked;
  (List.rev !ops, List.length picked)

let campus ctx ~seed =
  let ops, meetings = campus_schedule ~seed in
  let stack = Common.make_scallop ~seed () in
  let w = media_world stack in
  let setup_ns = clock_ns () - process_start_ns in
  run_media ctx w ~ops ~window_ns:(Engine.sec campus_window_s) ~setup_ns
    ~checks_extra:[ check "meetings" (meetings > 0) (Printf.sprintf "%d meeting(s)" meetings) ]

(* congested-8 — one 8-party all-send meeting, 2% iid loss on every
   access downlink, and the last member's downlink capped at 4 Mb/s.
   This is where NACK->RTX fan-out amplification and GCC/REMB layer
   dropping run at a size that takes seconds. Loads: the data plane at
   the highest fan-out of the three workloads (7 replicas per ingress),
   clients' loss recovery and rate adaptation, links. Members join
   during set-up. *)
let congested_window_s = 5.0

let congested ctx ~seed =
  let stack = Common.make_scallop ~seed () in
  let w = media_world stack in
  let lossy = { (Common.client_link ()) with Link.loss = 0.02 } in
  for slot = 0 to 7 do
    let downlink = if slot = 7 then { lossy with Link.rate_bps = 4e6 } else lossy in
    media_join ctx w ~downlink ~meeting:0 ~slot ()
  done;
  let setup_ns = clock_ns () - process_start_ns in
  run_media ctx w ~ops:[] ~window_ns:(Engine.sec congested_window_s) ~setup_ns ~checks_extra:[]

(* ---- ctrl-churn ------------------------------------------------------- *)

(* ctrl-churn — the campus join/leave/migrate/screen-share schedule of
   [Experiments.Ctrl_churn], replayed back to back on two switches over a
   20 ms RTT control channel with 10% loss each way, with media-quiet
   clients. The controller keeps its default [Controller.create]
   configuration (per-op RPCs, no journal); as in [Ctrl_churn] the
   channel allows 16 retries so that no call gives up. Loads: Controller,
   Switch_agent, Rpc_transport, Trees and PRE writes; the media path does
   no work. *)
type churn_op =
  | C_join of { meeting : int; slot : int }
  | C_leave of { meeting : int; slot : int }
  | C_migrate of { meeting : int; slot : int; home : int }
  | C_share_start of { meeting : int; slot : int }
  | C_share_stop of { meeting : int; slot : int }

let churn_meetings = 10
let churn_size = 12

let churn_schedule ~seed =
  let rng = Rng.create (seed + 7) in
  (* Some seeds' datasets hold fewer than [churn_meetings] meetings of
     [churn_size]; draw further datasets from the same generator until
     there are enough, so every seed replays the same number of them. *)
  let rec draw acc =
    if List.length acc >= churn_meetings then acc
    else
      let ds = Dataset.generate rng ~meetings:(churn_meetings * 20) () in
      Array.to_list ds.Dataset.meetings
      |> List.filter (fun (m : Dataset.meeting) -> m.size >= churn_size)
      |> List.sort (fun (a : Dataset.meeting) b -> compare a.start_ns b.start_ns)
      |> List.append acc |> draw
  in
  let picked = draw [] |> List.filteri (fun i _ -> i < churn_meetings) in
  let events = ref [] in
  let add ts ev = events := (ts, ev) :: !events in
  List.iteri
    (fun mi (m : Dataset.meeting) ->
      let k = min churn_size m.size in
      let at frac = m.start_ns + int_of_float (frac *. float_of_int m.duration_ns) in
      for j = 0 to k - 1 do
        add (at (0.4 *. float_of_int j /. float_of_int k)) (C_join { meeting = mi; slot = j })
      done;
      add (at 0.45) (C_share_start { meeting = mi; slot = 0 });
      add (at 0.55) (C_share_stop { meeting = mi; slot = 0 });
      if k >= 3 then add (at 0.6) (C_migrate { meeting = mi; slot = 1; home = (mi + 1) mod 2 });
      for j = 0 to k - 1 do
        add (at (0.7 +. (0.3 *. float_of_int j /. float_of_int k))) (C_leave { meeting = mi; slot = j })
      done)
    picked;
  (List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev !events) |> List.map snd,
   List.length picked)

let quiet_config ~ip =
  let c = Client.default_config ~ip in
  let never = Engine.sec 1e7 in
  {
    c with
    Client.send_video = false;
    send_audio = false;
    sr_interval_ns = never;
    remb_poll_interval_ns = never;
    nack_poll_interval_ns = never;
    stun_interval_ns = never;
    rr_interval_ns = never;
  }

let churn ctx ~seed =
  let events, meetings = churn_schedule ~seed in
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let network = Network.create engine (Rng.split rng) in
  let mk i =
    let ip = Addr.ip_of_string (Printf.sprintf "10.0.0.%d" (i + 1)) in
    Network.add_host network ~ip ~uplink:Common.fast_link ~downlink:Common.fast_link ();
    let dp = Dataplane.create engine network ~ip ~obs_label:(Printf.sprintf "churn%d" i) () in
    (Scallop.Switch_agent.create engine dp (), dp)
  in
  let agents = [ mk 0; mk 1 ] in
  let dps = List.map snd agents in
  let control =
    let base = Scallop.Rpc_transport.degraded ~loss:0.1 ~rtt_ns:(Engine.ms 20) () in
    { base with Scallop.Rpc_transport.max_retries = 16 }
  in
  let controller = Controller.create engine network (Rng.split rng) ~agents ~control () in
  let setup_ns = clock_ns () - process_start_ns in
  let clients = Hashtbl.create 256 and pids = Hashtbl.create 256 and mids = Hashtbl.create 16 in
  let next = ref 0 in
  let mid_of mi =
    match Hashtbl.find_opt mids mi with
    | Some m -> m
    | None ->
        let m = Controller.create_meeting controller in
        Hashtbl.replace mids mi m;
        m
  in
  let client_of key =
    match Hashtbl.find_opt clients key with
    | Some c -> c
    | None ->
        let c = Common.add_client engine network rng ~index:!next ~config:quiet_config () in
        incr next;
        hook_client ctx c;
        Hashtbl.replace clients key c;
        c
  in
  let touched meeting =
    note_connections ctx
      (Hashtbl.fold (fun (m, _) c acc -> if m = meeting then c :: acc else acc) clients [])
  in
  let with_pid meeting slot f =
    Option.iter (fun pid -> f pid; touched meeting) (Hashtbl.find_opt pids (meeting, slot))
  in
  let join ?home meeting slot =
    let mid = mid_of meeting and c = client_of (meeting, slot) in
    ctrl ctx engine "join" (fun () -> Controller.join ?home controller mid c ~send_media:true)
    |> Option.iter (fun pid -> Hashtbl.replace pids (meeting, slot) pid);
    touched meeting
  in
  ctx.in_window <- true;
  let v0 = Engine.now engine in
  let w0 = clock_ns () in
  List.iter
    (function
      | C_join { meeting; slot } -> join meeting slot
      | C_leave { meeting; slot } ->
          with_pid meeting slot (fun pid ->
              ignore (ctrl ctx engine "leave" (fun () -> Controller.leave controller pid));
              Hashtbl.remove pids (meeting, slot))
      | C_migrate { meeting; slot; home } ->
          with_pid meeting slot (fun pid ->
              ignore (ctrl ctx engine "leave" (fun () -> Controller.leave controller pid));
              Hashtbl.remove pids (meeting, slot);
              join ~home meeting slot)
      | C_share_start { meeting; slot } ->
          with_pid meeting slot (fun pid ->
              ignore
                (ctrl ctx engine "share_start" (fun () ->
                     Controller.start_screen_share controller pid)))
      | C_share_stop { meeting; slot } ->
          with_pid meeting slot (fun pid ->
              ignore
                (ctrl ctx engine "share_stop" (fun () ->
                     Controller.stop_screen_share controller pid))))
    events;
  let window_wall_ns = clock_ns () - w0 in
  let sim_s = Engine.to_sec (Engine.now engine - v0) in
  ctx.in_window <- false;
  let gc = Gc.quick_stat () and ctrl_wall_us = ctx.ctrl_wall_us in
  let peak = peak_heap_mb () in
  if ctx.traced then Gc_pauses.stop ();
  let verify = verify_check controller in
  let counts = common_counts ctx controller dps in
  let ops = List.length ctx.ctrl_virt_ms in
  let report =
    [
      ("ctrl_op_ms_p50", percentile_list ctx.ctrl_virt_ms 50.0, "ms");
      ("ctrl_op_ms_p99", percentile_list ctx.ctrl_virt_ms 99.0, "ms");
    ]
  in
  let links =
    Hashtbl.fold
      (fun _ c acc ->
        let ip = Client.ip c in
        Network.uplink network ~ip :: Network.downlink network ~ip :: acc)
      clients []
  in
  let virt =
    List.map (fun (k, v, _) -> (k, F v)) report
    @ List.map (fun (k, v) -> (k, I v)) counts
    @ [
        ("sim_s", F sim_s);
        ("ctrl.window_ops", I ops);
        ("ctrl.op_ms_sum", F (List.fold_left ( +. ) 0.0 ctx.ctrl_virt_ms));
        ("link.sent", I (List.fold_left (fun a l -> a + Link.sent l) 0 links));
      ]
  in
  let drained = drain_check engine dps in
  let layers =
    if not ctx.traced then []
    else
      layer_metrics ctx ~gc ~ctrl_wall_us ~counts ~links ~work:ops
        ~tx_media:(count "client.tx_rtp" counts) ~rtx:0 ~window_wall_ns
  in
  {
    virt;
    sim_s;
    window_s = float_of_int window_wall_ns /. 1e9;
    setup_s = float_of_int setup_ns /. 1e9;
    peak_heap_mb = peak;
    ctrl_wall_us;
    report;
    layers;
    checks =
      [
        verify;
        drained;
        check "meetings" (meetings = churn_meetings)
          (Printf.sprintf "%d of %d meeting(s) found" meetings churn_meetings);
        check "ctrl_ops_ok" (ctx.ctrl_failed = 0) (String.concat "; " ctx.ctrl_errors);
      ];
    attempted = ops;
    failed = ctx.ctrl_failed;
  }

(* ---- main ------------------------------------------------------------ *)

let workloads = [ ("campus-replay", campus); ("congested-8", congested); ("ctrl-churn", churn) ]

let () =
  let workload = ref "" and seed = ref 1 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME campus-replay | congested-8 | ctrl-churn");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--trace", Arg.Set_int trace, "0|1 per-layer tracing");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N [--trace 0|1]";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
  in
  let traced = !trace = 1 in
  if traced then Gc_pauses.start ();
  let ctx = make_ctx ~traced in
  let o = run ctx ~seed:!seed in
  let metric (k, v, unit) = (k, O [ ("value", F v); ("unit", S unit) ]) in
  let sim_speed = if o.window_s > 0.0 then o.sim_s /. o.window_s else 0.0 in
  let ctrl_wall_s = List.fold_left ( +. ) 0.0 o.ctrl_wall_us /. 1e6 in
  let ctrl_ops = List.length o.ctrl_wall_us in
  let e2e =
    [
      ("sim_speed", sim_speed, "s/s");
      ("setup_s", o.setup_s, "s");
      ("peak_heap_mb", o.peak_heap_mb, "MB");
      ("ctrl_ops_per_s", (if ctrl_wall_s > 0.0 then float_of_int ctrl_ops /. ctrl_wall_s else 0.0), "1/s");
      ("window_s", o.window_s, "s");
    ]
  in
  let b = Buffer.create 4096 in
  emit b
    (O
       [
         ("workload", S !workload);
         ("seed", I !seed);
         ("trace", I !trace);
         ("virtual", O o.virt);
         ("e2e", O (List.map metric e2e));
         ("report", O (List.map metric o.report));
         ("layers", O (List.map metric o.layers));
         ( "checks",
           L
             (List.map
                (fun c -> O [ ("name", S c.c_name); ("ok", B c.c_ok); ("detail", S c.c_detail) ])
                o.checks) );
         ("attempted", I o.attempted);
         ("failed", I o.failed);
       ]);
  print_endline (Buffer.contents b)

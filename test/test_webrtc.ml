(* WebRTC client endpoint tests, including a pure peer-to-peer call: the
   endpoint implements the full protocol machinery on its own, which is
   precisely why Scallop can pose as a peer (the P2P illusion). *)

module Addr = Scallop_util.Addr
module Rng = Scallop_util.Rng
module Engine = Netsim.Engine
module Network = Netsim.Network
module Link = Netsim.Link
module Client = Webrtc.Client

let setup () =
  let engine = Engine.create () in
  let rng = Rng.create 17 in
  let network = Network.create engine (Rng.split rng) in
  (engine, rng, network)

let mk_client engine network rng ~ip_str ?(config = Client.default_config) () =
  let ip = Addr.ip_of_string ip_str in
  Network.add_host network ~ip ();
  Client.create engine network (Rng.split rng) (config ~ip)

(* Two clients talking directly to each other: A's send connection targets
   B's receive connection and vice versa. *)
let p2p_pair ?config_a ?config_b () =
  let engine, rng, network = setup () in
  let a = mk_client engine network rng ~ip_str:"10.1.0.1" ?config:config_a () in
  let b = mk_client engine network rng ~ip_str:"10.1.0.2" ?config:config_b () in
  (* fixed ports so each side can predict its peer *)
  let a_send = 20_100 and b_recv = 20_200 and b_send = 20_300 and a_recv = 20_400 in
  let conn_b_recv =
    Client.add_recv_connection b ~local_port:b_recv
      ~remote:(Addr.v (Client.ip a) a_send) ~video_ssrc:111 ~audio_ssrc:112
  in
  let conn_a_send =
    Client.add_send_connection a ~local_port:a_send
      ~remote:(Addr.v (Client.ip b) b_recv) ~video_ssrc:111 ~audio_ssrc:112
  in
  let conn_a_recv =
    Client.add_recv_connection a ~local_port:a_recv
      ~remote:(Addr.v (Client.ip b) b_send) ~video_ssrc:221 ~audio_ssrc:222
  in
  let conn_b_send =
    Client.add_send_connection b ~local_port:b_send
      ~remote:(Addr.v (Client.ip a) a_recv) ~video_ssrc:221 ~audio_ssrc:222
  in
  (engine, network, (a, conn_a_send, conn_a_recv), (b, conn_b_send, conn_b_recv))

let p2p_call_works () =
  let engine, _net, (_, _, a_recv), (_, _, b_recv) = p2p_pair () in
  Engine.run engine ~until:(Engine.sec 5.0);
  List.iter
    (fun conn ->
      let rx = Option.get (Client.receiver conn) in
      Alcotest.(check bool) "near 30 fps" true (Codec.Video_receiver.frames_decoded rx > 120);
      Alcotest.(check int) "no freezes" 0 (Codec.Video_receiver.freezes rx);
      Alcotest.(check bool) "audio too" true (Client.audio_packets_received conn > 200))
    [ a_recv; b_recv ]

let stun_rtt_measured () =
  let engine, _net, (_, a_send, _), _ = p2p_pair () in
  Engine.run engine ~until:(Engine.sec 6.0);
  match Client.stun_rtt_ms a_send with
  | Some rtt ->
      (* two 5 ms propagation legs each way = ~20 ms *)
      Alcotest.(check bool) "plausible rtt" true (rtt > 15.0 && rtt < 40.0)
  | None -> Alcotest.fail "no STUN round trip measured"

let sender_reports_flow () =
  let engine, _net, (_, _, a_recv), _ = p2p_pair () in
  Engine.run engine ~until:(Engine.sec 5.0);
  (* ~520 ms cadence over 5 s, compound includes video+audio SRs *)
  Alcotest.(check bool) "SRs received" true (Client.srs_received a_recv >= 7)

let remb_throttles_sender () =
  let engine, network, (_, a_send, _), _ = p2p_pair () in
  Engine.run engine ~until:(Engine.sec 2.0);
  Alcotest.(check int) "starts at configured max" 2_500_000 (Client.video_bitrate a_send);
  (* B's downlink collapses; B's GCC tells A to slow down *)
  Link.set_rate (Network.downlink network ~ip:(Addr.ip_of_string "10.1.0.2")) 800_000.0;
  Engine.run engine ~until:(Engine.sec 25.0);
  Alcotest.(check bool) "sender slowed" true (Client.video_bitrate a_send < 1_500_000)

let nack_recovers_loss () =
  let engine, _net, (a, a_send, _), (_, _, b_recv) = p2p_pair () in
  ignore a;
  (* drop ~1% on the path from A to B *)
  Engine.run engine ~until:(Engine.sec 1.0);
  let a_up = Network.uplink _net ~ip:(Addr.ip_of_string "10.1.0.1") in
  Link.set_loss a_up 0.01;
  Engine.run engine ~until:(Engine.sec 15.0);
  Link.set_loss a_up 0.0;
  Engine.run engine ~until:(Engine.sec 17.0);
  Alcotest.(check bool) "sender retransmitted" true (Client.retransmissions a_send > 0);
  let rx = Option.get (Client.receiver b_recv) in
  Alcotest.(check bool) "losses recovered" true
    (Codec.Video_receiver.frames_decoded rx > 420);
  Alcotest.(check int) "no freezes" 0 (Codec.Video_receiver.freezes rx)

let pacing_spreads_frames () =
  let engine, _net, _, _ = p2p_pair () in
  (* watch inter-departure gaps on A's uplink wire *)
  let engine2, rng2, network2 = setup () in
  ignore engine;
  let a = mk_client engine2 network2 rng2 ~ip_str:"10.2.0.1" () in
  Network.add_host network2 ~ip:(Addr.ip_of_string "10.2.0.9") ();
  (* a minimal peer: answer connectivity checks so ICE completes and the
     held-back media starts flowing *)
  let sink = Addr.v (Addr.ip_of_string "10.2.0.9") 9 in
  Network.bind network2 sink (fun dgram ->
      match Rtp.Stun.parse dgram.Netsim.Dgram.payload with
      | exception _ -> ()
      | msg when msg.Rtp.Stun.cls = Rtp.Stun.Request ->
          let reply =
            Rtp.Stun.binding_success ~transaction_id:msg.Rtp.Stun.transaction_id
              ~mapped_ip:dgram.Netsim.Dgram.src.Addr.ip
              ~mapped_port:dgram.Netsim.Dgram.src.Addr.port
          in
          Network.send network2
            (Netsim.Dgram.v ~src:sink ~dst:dgram.Netsim.Dgram.src (Rtp.Stun.serialize reply))
      | _ -> ());
  let last_tx = ref 0 and min_gap = ref max_int and tx_count = ref 0 in
  Client.set_tx_hook a (fun ~time_ns dgram ->
      if Rtp.Demux.classify dgram.Netsim.Dgram.payload = Rtp.Demux.Rtp_media
         && Bytes.length dgram.Netsim.Dgram.payload > 500 then begin
        if !tx_count > 0 then min_gap := min !min_gap (time_ns - !last_tx);
        last_tx := time_ns;
        incr tx_count
      end);
  ignore
    (Client.add_send_connection a ~local_port:21_000
       ~remote:(Addr.v (Addr.ip_of_string "10.2.0.9") 9) ~video_ssrc:5 ~audio_ssrc:6);
  Engine.run engine2 ~until:(Engine.sec 2.0);
  Alcotest.(check bool) "sent packets" true (!tx_count > 100);
  Alcotest.(check bool) "video never bursts back-to-back" true (!min_gap >= 300_000)

let connection_close_stops_media () =
  let engine, _net, (a, a_send, _), (_, _, b_recv) = p2p_pair () in
  Engine.run engine ~until:(Engine.sec 2.0);
  let rx = Option.get (Client.receiver b_recv) in
  let before = Codec.Video_receiver.packets_received rx in
  Client.close_connection a a_send;
  Engine.run engine ~until:(Engine.sec 4.0);
  let after = Codec.Video_receiver.packets_received rx in
  (* nothing but in-flight stragglers after the close *)
  Alcotest.(check bool) "media stopped" true (after - before < 30)

let ice_gates_media () =
  (* a send connection towards a black hole: connectivity never confirms,
     so not a single media packet may leave *)
  let engine, rng, network = setup () in
  let a = mk_client engine network rng ~ip_str:"10.4.0.1" () in
  Network.add_host network ~ip:(Addr.ip_of_string "10.4.0.9") ();
  let rtp_sent = ref 0 in
  Client.set_tx_hook a (fun ~time_ns:_ dgram ->
      if Rtp.Demux.classify dgram.Netsim.Dgram.payload = Rtp.Demux.Rtp_media then incr rtp_sent);
  let conn =
    Client.add_send_connection a ~local_port:22_000
      ~remote:(Addr.v (Addr.ip_of_string "10.4.0.9") 9) ~video_ssrc:1 ~audio_ssrc:2
  in
  Engine.run engine ~until:(Engine.sec 5.0);
  Alcotest.(check bool) "never connected" false (Client.connected conn);
  Alcotest.(check int) "no media leaked" 0 !rtp_sent

let bye_sent_on_close () =
  let engine, _net, (a, a_send, _), (_, _, b_recv) = p2p_pair () in
  Engine.run engine ~until:(Engine.sec 2.0);
  let byes = ref 0 in
  Client.set_tx_hook a (fun ~time_ns:_ dgram ->
      match Rtp.Demux.classify dgram.Netsim.Dgram.payload with
      | Rtp.Demux.Rtcp_feedback ->
          List.iter
            (function Rtp.Rtcp.Bye _ -> incr byes | _ -> ())
            (Rtp.Rtcp.parse_compound dgram.Netsim.Dgram.payload)
      | _ -> ());
  Client.close_connection a a_send;
  ignore b_recv;
  Alcotest.(check int) "one BYE" 1 !byes

let fresh_ports_unique () =
  let engine, rng, network = setup () in
  let c = mk_client engine network rng ~ip_str:"10.3.0.1" () in
  let ports = List.init 100 (fun _ -> Client.fresh_port c) in
  Alcotest.(check int) "all distinct" 100 (List.length (List.sort_uniq compare ports))

(* A receive stream that never carries media must cost almost nothing:
   rings, tables and the retransmission history grow on first use. *)
let idle_connection_footprint () =
  Scallop_obs.Qoe.reset ();
  let engine, rng, network = setup () in
  let a = mk_client engine network rng ~ip_str:"10.5.0.1" () in
  let peer = Addr.v (Addr.ip_of_string "10.5.0.9") 9 in
  Network.add_host network ~ip:peer.Addr.ip ();
  let recv =
    Client.add_recv_connection a ~local_port:23_000 ~remote:peer ~video_ssrc:1 ~audio_ssrc:2
  in
  Client.attach_qoe recv ~meeting:0 ~receiver:1 ~sender:2 ~media:Scallop_obs.Qoe.Camera;
  let send =
    Client.add_send_connection a ~local_port:23_001 ~remote:peer ~video_ssrc:3 ~audio_ssrc:4
  in
  let words = Obj.reachable_words (Obj.repr recv) in
  Alcotest.(check bool)
    (Printf.sprintf "idle receive connection %d words <= 4096" words)
    true (words <= 4096);
  let words = Obj.reachable_words (Obj.repr send) in
  Alcotest.(check bool)
    (Printf.sprintf "idle send connection %d words <= 512" words)
    true (words <= 512)

(* A NACK reaching a connection that has sent nothing yet finds no
   history: nothing is resent and nothing raises. *)
let nack_without_history () =
  let nack_to conn network =
    Network.send network
      (Netsim.Dgram.v ~src:(Client.remote_addr conn) ~dst:(Client.local_addr conn)
         (Rtp.Rtcp.serialize_compound
            [ Rtp.Rtcp.Nack { sender_ssrc = 0; media_ssrc = 111; lost = [ 0; 1; 1023; 1024 ] } ]))
  in
  (* a receive connection, mid-call *)
  let engine, network, (_, _, a_recv), _ = p2p_pair () in
  Engine.run engine ~until:(Engine.sec 1.0);
  nack_to a_recv network;
  Engine.run engine ~until:(Engine.sec 1.5);
  Alcotest.(check int) "receive connection got the NACK" 1 (Client.nacks_received a_recv);
  Alcotest.(check int) "receive connection resent nothing" 0 (Client.retransmissions a_recv);
  (* a sender whose peer never answers ICE, so no frame has left yet *)
  let engine, rng, network = setup () in
  let a = mk_client engine network rng ~ip_str:"10.6.0.1" () in
  let peer = Addr.v (Addr.ip_of_string "10.6.0.9") 9 in
  Network.add_host network ~ip:peer.Addr.ip ();
  let send =
    Client.add_send_connection a ~local_port:24_000 ~remote:peer ~video_ssrc:111 ~audio_ssrc:112
  in
  nack_to send network;
  Engine.run engine ~until:(Engine.sec 0.5);
  Alcotest.(check bool) "sender not connected" false (Client.connected send);
  Alcotest.(check int) "sender got the NACK" 1 (Client.nacks_received send);
  Alcotest.(check int) "sender resent nothing" 0 (Client.retransmissions send)

(* Audio and video share the 1,024-slot history but have independent
   sequence spaces: a NACK for video must not resend the audio packet
   that happens to carry the NACKed sequence number. *)
let nack_honours_media_ssrc () =
  let engine, network, (a, a_send, _), _ = p2p_pair () in
  let sent = ref [] in
  Client.set_tx_hook a (fun ~time_ns:_ (d : Netsim.Dgram.t) ->
      if d.Netsim.Dgram.src = Client.local_addr a_send then
        match Rtp.Packet.parse d.Netsim.Dgram.payload with
        | exception Rtp.Wire.Parse_error _ -> ()
        | p -> sent := (p.Rtp.Packet.ssrc, p.Rtp.Packet.sequence) :: !sent);
  Engine.run engine ~until:(Engine.sec 1.0);
  (* the newest audio packet still owns its history slot *)
  let audio_seq = snd (List.find (fun (ssrc, _) -> ssrc = 112) !sent) in
  let resends ssrc = List.length (List.filter (( = ) (ssrc, audio_seq)) !sent) in
  let nack media_ssrc =
    Network.send network
      (Netsim.Dgram.v ~src:(Client.remote_addr a_send) ~dst:(Client.local_addr a_send)
         (Rtp.Rtcp.serialize_compound
            [ Rtp.Rtcp.Nack { sender_ssrc = 0; media_ssrc; lost = [ audio_seq ] } ]))
  in
  let before = Client.retransmissions a_send in
  nack 111;
  Engine.run engine ~until:(Engine.sec 1.05);
  Alcotest.(check int) "video NACK resent nothing" before (Client.retransmissions a_send);
  Alcotest.(check int) "audio packet sent once" 1 (resends 112);
  nack 112;
  Engine.run engine ~until:(Engine.sec 1.1);
  Alcotest.(check int) "audio NACK resent it" (before + 1) (Client.retransmissions a_send);
  Alcotest.(check int) "audio packet sent twice" 2 (resends 112)

let () =
  Alcotest.run "webrtc"
    [
      ( "p2p",
        [
          Alcotest.test_case "call works" `Quick p2p_call_works;
          Alcotest.test_case "stun rtt" `Quick stun_rtt_measured;
          Alcotest.test_case "sender reports" `Quick sender_reports_flow;
          Alcotest.test_case "remb throttles sender" `Quick remb_throttles_sender;
          Alcotest.test_case "nack recovers loss" `Quick nack_recovers_loss;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "pacing" `Quick pacing_spreads_frames;
          Alcotest.test_case "close stops media" `Quick connection_close_stops_media;
          Alcotest.test_case "fresh ports" `Quick fresh_ports_unique;
          Alcotest.test_case "ice gates media" `Quick ice_gates_media;
          Alcotest.test_case "bye on close" `Quick bye_sent_on_close;
          Alcotest.test_case "idle connection footprint" `Quick idle_connection_footprint;
          Alcotest.test_case "nack without history" `Quick nack_without_history;
          Alcotest.test_case "nack honours media ssrc" `Quick nack_honours_media_ssrc;
        ] );
    ]

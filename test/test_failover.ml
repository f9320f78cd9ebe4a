(* Failure detection and recovery: every repair is one level-triggered
   Sync of controller intent. Crash/restart, partition heal (media keeps
   flowing and untouched legs keep their data-plane state), a reboot
   under an in-flight Sync, a takeover over in-sync agents, and
   anti-entropy repair. The QCheck properties are the heart of it: a run
   that crashes mid-way and syncs from intent must converge to the same
   agent state as the run that never crashed, and at the end the agent's
   digest must equal the intent digest exactly when the verifier finds
   no intent drift. *)

module Engine = Netsim.Engine
module Link = Netsim.Link
module Rng = Scallop_util.Rng
module C = Scallop.Controller
module A = Scallop.Switch_agent
module D = Scallop.Dataplane
module T = Scallop.Rpc_transport
module Rpc = Scallop.Rpc
module An = Scallop_analysis
module Cl = Scallop.Cluster
module Common = Experiments.Common

(* Canonical agent shadow state for equivalence checks: everything the
   control plane installed, minus media-driven fields — adaptive-leg
   targets and the best-downlink selection evolve with traffic the
   crashed run did not deliver, and meeting ids / tree handles are
   allocator artifacts of the replay. [amv_pair_specific] is also out:
   it is a sticky mode bit ("a pair target was ever set"), and when the
   pinned pair leaves before the crash the controller rightly drops the
   pin from intent, so the replayed agent cannot (and should not)
   reconstruct the stickiness. *)
let canon_agent agent =
  A.introspect agent
  |> List.map (fun (m : A.meeting_view) ->
         let streams =
           m.A.amv_streams
           |> List.map (fun (s : A.stream_view) ->
                  let legs =
                    s.A.asv_legs
                    |> List.map (fun (l : A.leg_view) ->
                           ( l.A.alv_port,
                             l.A.alv_receiver,
                             l.A.alv_adaptive,
                             if l.A.alv_adaptive then None else Some l.A.alv_target ))
                    |> List.sort compare
                  in
                  ( s.A.asv_uplink_port,
                    s.A.asv_sender,
                    s.A.asv_video_ssrc,
                    s.A.asv_audio_ssrc,
                    Array.to_list s.A.asv_renditions,
                    legs ))
           |> List.sort compare
         in
         ( List.sort compare m.A.amv_members,
           List.sort compare m.A.amv_senders,
           streams ))
  |> List.sort compare

let set_control_loss stack loss =
  let chan = C.control_channel stack.Common.controller 0 in
  Link.set_loss (T.Client.request_link chan) loss;
  Link.set_loss (T.Client.reply_link chan) loss

let run_to stack seconds =
  Engine.run stack.Common.engine ~until:(Engine.sec seconds)

(* Every non-heartbeat request the controller puts on switch 0's
   channel, retransmissions included, by name. *)
let log_requests ctrl =
  let log = ref [] in
  T.Client.set_request_fault (C.control_channel ctrl 0)
    (Some
       (fun ~seq:_ ~attempt:_ req ->
         if req <> Rpc.Ping then log := Rpc.request_name req :: !log;
         T.Pass));
  log

(* The agent's digest equals the intent digest exactly when the verifier
   finds no intent drift on that switch. *)
let digest_agrees_with_verifier ctrl =
  let findings = An.verify ctrl in
  for idx = 0 to C.switch_count ctrl - 1 do
    let drift =
      List.exists
        (fun (f : An.finding) ->
          f.An.kind = An.Intent_drift
          && String.starts_with ~prefix:(Printf.sprintf "sw%d/" idx) f.An.subject)
        findings
    in
    Alcotest.(check bool)
      (Printf.sprintf "sw%d digest matches intent iff no intent drift" idx)
      (not drift)
      (Digest.equal (A.digest (fst (C.switch_agent ctrl idx))) (C.intent_digest ctrl idx))
  done

(* Data-plane entries by leg port, with their live rewriters: a leg that
   keeps both was never torn down (a [Dataplane.reset] or a
   re-registration would replace them). Targets are left out, because the
   agent's own layer selection moves them. *)
let legs_state dp =
  D.legs_view dp
  |> List.map (fun (l : D.leg_view) ->
         ( l.D.lv_src_port,
           ( l.D.lv_receiver,
             l.D.lv_video_ssrc,
             l.D.lv_dst,
             l.D.lv_uplink_port,
             l.D.lv_stream_index,
             l.D.lv_ssrc_keys ),
           D.leg_rewriter dp ~leg_port:l.D.lv_src_port ))
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let same_rewriter a b =
  match (a, b) with Some a, Some b -> a == b | None, None -> true | _ -> false

(* --- crash + restart: the blank agent gets one Sync ---------------------- *)

let crash_restart_resyncs () =
  let stack = Common.make_scallop ~seed:31 () in
  let mid, _parts = Common.scallop_meeting stack ~participants:4 ~senders:2 () in
  C.start_health stack.controller;
  run_to stack 1.5;
  A.crash stack.agent;
  run_to stack 4.0;
  Alcotest.(check string)
    "declared dead while down" "dead"
    (C.health_name (C.agent_health stack.controller 0));
  let requests = log_requests stack.controller in
  (* mutate intent while the switch is dead: must not raise, is not shipped *)
  let pids = C.meeting_participants stack.controller mid in
  C.set_pair_target stack.controller ~sender:(List.hd pids)
    ~receiver:(List.nth pids 2) Av1.Dd.DT_15fps;
  Alcotest.(check (list string)) "nothing shipped to a dead switch" [] !requests;
  A.restart stack.agent;
  run_to stack 8.0;
  C.stop_health stack.controller;
  Alcotest.(check string)
    "healthy after heal" "healthy"
    (C.health_name (C.agent_health stack.controller 0));
  Alcotest.(check (list string)) "one Sync rebuilt the agent" [ "sync" ] !requests;
  (match C.recovery_log stack.controller with
  | [ e ] -> Alcotest.(check int) "one RPC" 1 e.C.re_ops
  | l -> Alcotest.failf "expected one recovery, got %d" (List.length l));
  (* the pin set while dead came from intent: the meeting runs
     pair-specific trees (the target itself may keep adapting) *)
  Alcotest.(check bool)
    "pair pin survived the reboot" true
    (List.exists
       (fun (m : A.meeting_view) -> m.A.amv_pair_specific)
       (A.introspect stack.agent));
  digest_agrees_with_verifier stack.controller;
  An.assert_clean ~what:"post crash/restart sync" stack.controller

(* --- partition: media continues, one Sync heals, untouched legs stay ----- *)

let partition_heals_with_one_sync () =
  let stack = Common.make_scallop ~seed:32 () in
  let _mid, parts = Common.scallop_meeting stack ~participants:4 ~senders:2 () in
  C.start_health stack.controller;
  run_to stack 2.0;
  let before = legs_state stack.dp in
  let requests = log_requests stack.controller in
  set_control_loss stack 1.0;
  run_to stack 5.0;
  Alcotest.(check string)
    "partition declared dead" "dead"
    (C.health_name (C.agent_health stack.controller 0));
  let epoch_before = A.epoch stack.agent in
  (* control-plane mutations while partitioned: not shipped, don't raise *)
  let pids = List.map fst parts in
  let gone = List.nth pids 2 in
  C.set_pair_target stack.controller ~sender:(List.hd pids)
    ~receiver:(List.nth pids 3) Av1.Dd.DT_7_5fps;
  C.leave stack.controller gone;
  (* the data plane forwards last-known state through the outage *)
  let egress_mid = D.egress_pkts stack.dp in
  run_to stack 6.5;
  Alcotest.(check bool)
    "media flowed during the partition" true
    (D.egress_pkts stack.dp > egress_mid + 100);
  set_control_loss stack 0.0;
  run_to stack 9.0;
  C.stop_health stack.controller;
  Alcotest.(check int) "agent never rebooted" epoch_before (A.epoch stack.agent);
  Alcotest.(check (list string)) "the heal cost exactly one Sync" [ "sync" ] !requests;
  (match C.recovery_log stack.controller with
  | [ e ] -> Alcotest.(check int) "one RPC" 1 e.C.re_ops
  | l -> Alcotest.failf "expected one recovery, got %d" (List.length l));
  Alcotest.(check bool)
    "the leave landed with the Sync" true
    (not (List.mem gone (A.meeting_members stack.agent 0)));
  (* the leaver only receives, so every leg not towards it is untouched
     by the partition's ops: each kept its port, its data-plane entry and
     its live rewriter — nothing was reset or re-registered *)
  let after = legs_state stack.dp in
  let untouched =
    List.filter (fun (_, (receiver, _, _, _, _, _), _) -> receiver <> gone) before
  in
  Alcotest.(check int) "legs untouched by the partition" 4 (List.length untouched);
  Alcotest.(check int) "legs after the heal" 4 (List.length after);
  List.iter
    (fun (port, entry, rw) ->
      match List.find_opt (fun (p, _, _) -> p = port) after with
      | None -> Alcotest.failf "leg %d vanished" port
      | Some (_, entry', rw') ->
          if entry <> entry' then Alcotest.failf "leg %d entry changed" port;
          Alcotest.(check bool)
            (Printf.sprintf "leg %d kept its rewriter" port)
            true (same_rewriter rw rw'))
    untouched;
  digest_agrees_with_verifier stack.controller;
  An.assert_clean ~what:"post partition sync" stack.controller

(* --- a reboot under an in-flight Sync still converges -------------------- *)

let crash_under_in_flight_sync () =
  let stack = Common.make_scallop ~seed:37 () in
  let mid, _parts = Common.scallop_meeting stack ~participants:3 ~senders:2 () in
  C.start_health stack.controller;
  run_to stack 1.2;
  A.crash stack.agent;
  run_to stack 3.5;
  let pids = C.meeting_participants stack.controller mid in
  C.set_pair_target stack.controller ~sender:(List.hd pids)
    ~receiver:(List.nth pids 2) Av1.Dd.DT_15fps;
  (* the first Sync's first transmission is lost, and the switch
     power-cycles again before the retransmit lands *)
  let syncs = ref 0 in
  T.Client.set_request_fault (C.control_channel stack.controller 0)
    (Some
       (fun ~seq:_ ~attempt req ->
         match req with
         | Rpc.Sync _ ->
             incr syncs;
             if !syncs = 1 && attempt = 0 then begin
               Engine.schedule stack.engine ~after:(Engine.ms 50) (fun () ->
                   A.crash stack.agent);
               Engine.schedule stack.engine ~after:(Engine.ms 100) (fun () ->
                   A.restart stack.agent);
               T.Drop
             end
             else T.Pass
         | _ -> T.Pass));
  A.restart stack.agent;
  run_to stack 8.0;
  C.stop_health stack.controller;
  Alcotest.(check int) "agent rebooted twice" 2 (A.epoch stack.agent);
  Alcotest.(check bool) "the retransmit landed on the rebooted agent" true (!syncs >= 2);
  Alcotest.(check string)
    "healthy" "healthy"
    (C.health_name (C.agent_health stack.controller 0));
  Alcotest.(check bool)
    "agent digest equals intent" true
    (Digest.equal (A.digest stack.agent) (C.intent_digest stack.controller 0));
  digest_agrees_with_verifier stack.controller;
  An.assert_clean ~what:"post reboot under an in-flight Sync" stack.controller

(* --- anti-entropy: reconcile repairs a live-but-drifted switch ---------- *)

let reconcile_repairs_drift () =
  let stack = Common.make_scallop ~seed:34 () in
  let _mid, parts = Common.scallop_meeting stack ~participants:3 ~senders:2 () in
  run_to stack 2.0;
  An.assert_clean ~what:"steady state before drift" stack.controller;
  (* reach behind the agent's back and rip a leg out of the data plane *)
  let sender_pid = fst (List.hd parts) in
  let receiver_pid = fst (List.nth parts 2) in
  let info = Option.get (C.participant_sender_info stack.controller sender_pid) in
  D.unregister_leg stack.dp
    ~receiver:(C.agent_participant_id stack.controller receiver_pid)
    ~video_ssrc:info.C.video_ssrc;
  let report = An.reconcile stack.controller in
  Alcotest.(check bool) "drift detected" true (An.errors report.An.rr_before <> []);
  (match report.An.rr_repairs with
  | [ (0, Some ops) ] -> Alcotest.(check bool) "repair issued RPCs" true (ops > 0)
  | other ->
      Alcotest.failf "expected one successful repair of sw0, got %d"
        (List.length other));
  Alcotest.(check int) "clean after repair" 0 (List.length (An.errors report.An.rr_after));
  digest_agrees_with_verifier stack.controller;
  An.assert_clean ~what:"post reconcile" stack.controller

(* --- the Sync diff: idempotent, and convergent from any drift ------------ *)

let sync_repairs_any_drift () =
  let stack = Common.make_scallop ~seed:38 () in
  let mid, parts = Common.scallop_meeting stack ~participants:3 ~senders:2 () in
  run_to stack 1.0;
  let in_sync () =
    Digest.equal (A.digest stack.agent) (C.intent_digest stack.controller 0)
  in
  let resync what =
    Alcotest.(check (option int)) what (Some 1) (C.resync_switch stack.controller 0);
    Alcotest.(check bool) (what ^ ": digest equals intent") true (in_sync ());
    An.assert_clean ~what stack.controller
  in
  (* re-applying intent to an agent that already holds it touches nothing *)
  let legs = legs_state stack.dp in
  resync "in-sync agent";
  List.iter2
    (fun (port, entry, rw) (_, entry', rw') ->
      if entry <> entry' then Alcotest.failf "leg %d entry changed" port;
      Alcotest.(check bool) "rewriter kept" true (same_rewriter rw rw'))
    legs (legs_state stack.dp);
  (* an unknown meeting, a member re-registered under the wrong egress
     port (losing its legs) and a leg missing from the data plane all
     converge *)
  let member = fst (List.nth parts 2) in
  ignore (A.dispatch stack.agent (Rpc.New_meeting { meeting = 99 }));
  A.remove_participant stack.agent ~meeting:mid ~participant:member;
  A.register_participant stack.agent ~meeting:mid ~participant:member ~egress_port:77
    ~sends:false;
  let member = fst (List.nth parts 1) in
  let info =
    Option.get (C.participant_sender_info stack.controller (fst (List.hd parts)))
  in
  D.unregister_leg stack.dp ~receiver:member ~video_ssrc:info.C.video_ssrc;
  Alcotest.(check bool) "drift shows in the digest" false (in_sync ());
  resync "drifted agent";
  Alcotest.(check (list int)) "only intended meetings" [ mid ]
    (List.map (fun (m : A.meeting_view) -> m.A.amv_id) (A.introspect stack.agent));
  Alcotest.(check (list int)) "members restored"
    (C.meeting_participants stack.controller mid)
    (List.sort compare (A.meeting_members stack.agent mid));
  (* a blank agent is the maximal diff *)
  A.restart stack.agent;
  Alcotest.(check bool) "blank agent out of sync" false (in_sync ());
  resync "blank agent"

(* --- flapping switch: the detector counts every transition -------------- *)

let flapping_detector_counts_transitions () =
  let stack = Common.make_scallop ~seed:35 () in
  ignore (Common.scallop_meeting stack ~participants:3 ~senders:1 ());
  C.start_health stack.controller;
  run_to stack 1.0;
  (* two suspect/heal flaps: sever control long enough for Suspect
     (2 missed probes at the default 500 ms heartbeat) but heal before
     Dead (4 missed) *)
  set_control_loss stack 1.0;
  run_to stack 2.3;
  Alcotest.(check string) "first flap suspected" "suspect"
    (C.health_name (C.agent_health stack.controller 0));
  set_control_loss stack 0.0;
  run_to stack 3.3;
  Alcotest.(check string) "first flap healed" "healthy"
    (C.health_name (C.agent_health stack.controller 0));
  set_control_loss stack 1.0;
  run_to stack 4.6;
  Alcotest.(check string) "second flap suspected" "suspect"
    (C.health_name (C.agent_health stack.controller 0));
  set_control_loss stack 0.0;
  run_to stack 5.6;
  C.stop_health stack.controller;
  Alcotest.(check string) "second flap healed" "healthy"
    (C.health_name (C.agent_health stack.controller 0));
  (* the per-state transition counters behind scallop_ctrl_health_* see
     the matched suspect/healthy pairs; dead never fired *)
  Alcotest.(check int) "suspect transitions" 2
    (C.health_transitions stack.controller 0 C.Suspect);
  Alcotest.(check int) "healthy transitions" 2
    (C.health_transitions stack.controller 0 C.Healthy);
  Alcotest.(check int) "no dead transition" 0
    (C.health_transitions stack.controller 0 C.Dead);
  An.assert_clean ~what:"post flapping" stack.controller

(* --- recovery log: bounded ring, evictions counted ----------------------- *)

let recovery_log_is_bounded () =
  let stack = Common.make_scallop ~seed:36 () in
  ignore (Common.scallop_meeting stack ~participants:2 ~senders:0 ());
  (* an aggressive detector so 70 power-cycles complete their Syncs in a
     short virtual window *)
  C.start_health
    ~config:
      {
        C.heartbeat_every_ns = Engine.ms 50;
        probe_timeout_ns = Engine.ms 25;
        suspect_after = 1;
        dead_after = 2;
      }
    stack.controller;
  run_to stack 0.5;
  for i = 0 to 69 do
    let base = 0.5 +. (0.3 *. float_of_int i) in
    Engine.at stack.engine ~time:(Engine.sec base) (fun () ->
        A.crash stack.agent);
    Engine.at stack.engine
      ~time:(Engine.sec (base +. 0.15))
      (fun () -> A.restart stack.agent)
  done;
  run_to stack 23.0;
  C.stop_health stack.controller;
  let log = C.recovery_log stack.controller in
  Alcotest.(check int) "ring capped at 64" 64 (List.length log);
  Alcotest.(check bool) "evictions counted" true
    (C.recovery_log_dropped stack.controller > 0);
  (* newest-first: the surviving entries are the most recent heals *)
  (match log with
  | newest :: _ ->
      Alcotest.(check bool) "newest entry is from a late cycle" true
        (newest.C.re_recovered_ns > Engine.sec 15.0)
  | [] -> Alcotest.fail "empty recovery log")

(* --- lone controller: a cluster of one survives its own crash ----------- *)

let lone_controller_crash_rebuilds () =
  let stack = Common.make_scallop ~seed:43 () in
  let ctrl = stack.Common.controller in
  let mid, _parts = Common.scallop_meeting stack ~participants:4 ~senders:2 () in
  C.start_health ctrl;
  run_to stack 1.5;
  let members = C.meeting_participants ctrl mid in
  let fingerprint = C.intent_fingerprint ctrl in
  C.kill ctrl;
  run_to stack 2.0;
  C.restart ctrl;
  Alcotest.(check bool) "restarted as a standby" true (C.role ctrl = C.Standby);
  C.promote ctrl;
  run_to stack 3.0;
  C.stop_health ctrl;
  Alcotest.(check bool) "acting again" true (C.role ctrl = C.Acting);
  Alcotest.(check int) "fence past the first life's" 2 (C.fence ctrl);
  Alcotest.(check (list int)) "participants are back" members
    (C.meeting_participants ctrl mid);
  Alcotest.(check string) "intent rebuilt from the journal" fingerprint
    (C.intent_fingerprint ctrl);
  Alcotest.(check bool) "agent digest equals intent digest" true
    (Digest.equal (A.digest stack.agent) (C.intent_digest ctrl 0));
  An.assert_clean ~what:"post lone-controller restart" ctrl

(* --- cluster: kill the primary, the standby takes over ------------------- *)

let cluster_failover_resumes_service () =
  let cs = Common.make_cluster ~seed:41 () in
  let stack = cs.Common.base in
  let cluster = cs.Common.cluster in
  let mid, _parts = Common.scallop_meeting stack ~participants:4 ~senders:2 () in
  Cl.start_health cluster;
  run_to stack 1.5;
  Alcotest.(check string) "primary acting" "ctl" (C.label (Cl.endpoint cluster));
  Cl.kill_primary cluster;
  run_to stack 3.0;
  Alcotest.(check int) "standby promoted once" 1 (Cl.promotions cluster);
  let ep = Cl.endpoint cluster in
  Alcotest.(check string) "endpoint is the old standby" "ctl1" (C.label ep);
  Alcotest.(check bool) "fence advanced past the dead primary's" true
    (C.fence ep >= 2);
  (* the killed instance refuses new intent *)
  Alcotest.check_raises "killed primary unavailable" C.Unavailable (fun () ->
      ignore (C.create_meeting (Cl.primary cluster)));
  (* service continues through the new primary: the rebuilt intent
     resolves the pre-failover meeting and participant ids *)
  let pids = C.meeting_participants ep mid in
  C.set_pair_target ep ~sender:(List.hd pids) ~receiver:(List.nth pids 2)
    Av1.Dd.DT_15fps;
  C.leave ep (List.nth pids 3);
  run_to stack 5.0;
  (* the old primary rejoins as a tailing standby *)
  Cl.restart_killed cluster;
  run_to stack 7.0;
  Cl.stop cluster;
  Alcotest.(check bool) "restarted instance tails as standby" true
    (C.role (Cl.primary cluster) = C.Standby);
  (match An.errors (An.check_cluster cluster) with
  | [] -> ()
  | fs ->
      Alcotest.failf "cluster invariants violated: %s"
        (String.concat "; " (List.map (fun f -> f.An.explanation) fs)));
  Alcotest.(check string) "rebuilt standby reproduces the acting intent"
    (C.intent_fingerprint ep)
    (C.intent_fingerprint (Cl.primary cluster));
  An.assert_clean ~what:"post cluster failover" ep

(* --- takeover over in-sync agents leaves the data plane alone ------------ *)

let promote_keeps_data_plane () =
  let cs = Common.make_cluster ~seed:42 () in
  let stack = cs.Common.base in
  let cluster = cs.Common.cluster in
  ignore (Common.scallop_meeting stack ~participants:4 ~senders:3 ());
  Cl.start_health cluster;
  run_to stack 1.5;
  let legs = legs_state stack.dp in
  let uplinks =
    List.sort compare
      (List.map
         (fun (u : D.uplink_view) ->
           (u.D.uv_port, u.D.uv_sender, Scallop.Trees.handle_id u.D.uv_meeting))
         (D.uplinks_view stack.dp))
  in
  let requests = log_requests (Cl.standby cluster) in
  (* a false-positive failure detection: the standby takes over while
     the primary and the agent are both fine *)
  Cl.promote cluster;
  Alcotest.(check string) "standby acting" "ctl1" (C.label (Cl.endpoint cluster));
  Alcotest.(check (list string)) "one Sync per switch" [ "sync" ] !requests;
  run_to stack 2.0;
  Cl.stop cluster;
  let legs' = legs_state stack.dp in
  Alcotest.(check int) "same legs" (List.length legs) (List.length legs');
  List.iter2
    (fun (port, entry, rw) (port', entry', rw') ->
      Alcotest.(check int) "leg port" port port';
      if entry <> entry' then Alcotest.failf "leg %d entry changed" port;
      Alcotest.(check bool)
        (Printf.sprintf "leg %d kept its rewriter" port)
        true (same_rewriter rw rw'))
    legs legs';
  Alcotest.(check (list (triple int int int)))
    "uplinks and their trees unchanged" uplinks
    (List.sort compare
       (List.map
          (fun (u : D.uplink_view) ->
            (u.D.uv_port, u.D.uv_sender, Scallop.Trees.handle_id u.D.uv_meeting))
          (D.uplinks_view stack.dp)));
  digest_agrees_with_verifier (Cl.endpoint cluster);
  An.assert_clean ~what:"post takeover" (Cl.endpoint cluster)

(* --- QCheck: crash + sync-from-intent == never crashed ------------------ *)

type op = Join of bool | Leave of int | Target of int * int * int

let op_to_string = function
  | Join s -> Printf.sprintf "Join(send=%b)" s
  | Leave k -> Printf.sprintf "Leave(%d)" k
  | Target (s, r, t) -> Printf.sprintf "Target(%d,%d,%d)" s r t

type plan = { ops : op list; crash_ms : int; down_ms : int }

let plan_to_string p =
  Printf.sprintf "{ops=[%s]; crash=%dms; down=%dms}"
    (String.concat "; " (List.map op_to_string p.ops))
    p.crash_ms p.down_ms

let plan_gen =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (2, map (fun b -> Join b) bool);
        (1, map (fun k -> Leave k) (int_bound 10));
        ( 3,
          map3
            (fun s r t -> Target (s, r, t))
            (int_bound 10) (int_bound 10) (int_bound 2) );
      ]
  in
  map3
    (fun ops crash_ms down_ms -> { ops; crash_ms; down_ms })
    (list_size (int_range 3 6) op)
    (int_range 1000 2500) (int_range 800 2000)

let plan_arb = QCheck.make ~print:plan_to_string plan_gen

(* Replay [plan.ops] at fixed virtual times against a fresh 3-party
   meeting; when [crash] is set the switch power-cycles mid-sequence,
   and [batch] selects the controller's batched wire mode. Returns the
   canonical agent shadow after everything settles. *)
let execute ?(batch = false) plan ~crash =
  let stack = Common.make_scallop ~seed:11 ~batch () in
  let mid, parts = Common.scallop_meeting stack ~participants:3 ~senders:2 () in
  C.start_health stack.controller;
  let live = ref (List.map fst parts) in
  let senders = ref [ fst (List.hd parts); fst (List.nth parts 1) ] in
  let next_index = ref 10 in
  (* a blocking controller call pumps the engine through its retries, so a
     later op's timer can fire while an earlier op is still mid-call;
     serialize through a queue so ops always run whole and in order *)
  let pending = Queue.create () in
  let busy = ref false in
  let enqueue f =
    Queue.push f pending;
    if not !busy then begin
      busy := true;
      Fun.protect
        ~finally:(fun () -> busy := false)
        (fun () ->
          while not (Queue.is_empty pending) do
            (Queue.pop pending) ()
          done)
    end
  in
  List.iteri
    (fun i op ->
      Engine.at stack.engine
        ~time:(Engine.sec (0.8 +. (1.0 *. float_of_int i)))
        (fun () ->
          enqueue @@ fun () ->
          match op with
          | Join send ->
              incr next_index;
              let client =
                Common.add_client stack.engine stack.network stack.rng
                  ~index:!next_index ()
              in
              let pid = C.join stack.controller mid client ~send_media:send in
              live := !live @ [ pid ];
              if send then senders := !senders @ [ pid ]
          | Leave k ->
              if List.length !live > 1 then begin
                let pid = List.nth !live (k mod List.length !live) in
                C.leave stack.controller pid;
                live := List.filter (fun p -> p <> pid) !live;
                senders := List.filter (fun p -> p <> pid) !senders
              end
          | Target (s, r, t) -> (
              match List.filter (fun p -> List.mem p !live) !senders with
              | [] -> ()
              | ss -> (
                  let sender = List.nth ss (s mod List.length ss) in
                  match List.filter (fun p -> p <> sender) !live with
                  | [] -> ()
                  | rs ->
                      let receiver = List.nth rs (r mod List.length rs) in
                      C.set_pair_target stack.controller ~sender ~receiver
                        (Av1.Dd.target_of_index t)))))
    plan.ops;
  if crash then begin
    Engine.at stack.engine
      ~time:(Engine.ms plan.crash_ms)
      (fun () -> A.crash stack.agent);
    Engine.at stack.engine
      ~time:(Engine.ms (plan.crash_ms + plan.down_ms))
      (fun () -> A.restart stack.agent)
  end;
  run_to stack 10.0;
  C.stop_health stack.controller;
  An.assert_clean
    ~what:(if crash then "crashed run" else "baseline run")
    stack.controller;
  digest_agrees_with_verifier stack.controller;
  canon_agent stack.agent

let canon_to_string c =
  String.concat "\n"
    (List.map
       (fun (members, senders, streams) ->
         Printf.sprintf "members=%s senders=%s\n%s"
           (String.concat ","
              (List.map (fun (p, port) -> Printf.sprintf "%d@%d" p port) members))
           (String.concat "," (List.map string_of_int senders))
           (String.concat "\n"
              (List.map
                 (fun (up, s, v, a, rend, legs) ->
                   Printf.sprintf "  stream up=%d sender=%d v=%d a=%d rend=%d legs=[%s]"
                     up s v a (List.length rend)
                     (String.concat "; "
                        (List.map
                           (fun (port, r, ad, tgt) ->
                             Printf.sprintf "%d->%d ad=%b tgt=%s" port r ad
                               (match tgt with
                               | None -> "_"
                               | Some t -> string_of_float (Av1.Dd.fps_of_target t)))
                           legs)))
                 streams)))
       c)

let resync_equiv_prop =
  QCheck.Test.make ~count:4 ~name:"resync-from-intent == never-crashed" plan_arb
    (fun plan ->
      let crashed = execute plan ~crash:true in
      let baseline = execute plan ~crash:false in
      if crashed <> baseline then
        Printf.printf "--- crashed run:\n%s\n--- baseline run:\n%s\n"
          (canon_to_string crashed) (canon_to_string baseline);
      crashed = baseline)

(* The strongest form of the batching-equivalence claim: a batched run
   whose switch crashes mid-sequence (possibly mid-batch — a batch that
   fails leaves the switch Dead, and its Sync installs intent) must land
   on the same canonical agent state as a per-op run that never crashed
   at all. *)
(* Regression (found by the property above): a batched join whose flush
   straddles the switch's power-cycle. The heartbeat's first pong after
   the restart used to trigger the repair while the join's batch was
   still retrying; the repair recreated the meeting from intent and the
   batch's retransmit then landed on the healed agent and re-executed —
   duplicating the member and its legs. The repair now waits for a quiet
   channel. *)
let straddling_flush_does_not_double_execute () =
  let plan =
    { ops = [ Target (2, 5, 0); Target (9, 3, 2); Join false ];
      crash_ms = 2325; down_ms = 1064 }
  in
  let batched_crashed = execute plan ~crash:true ~batch:true in
  let baseline = execute plan ~crash:false in
  if batched_crashed <> baseline then
    Alcotest.failf "batched crashed run diverged:\n%s\n--- baseline:\n%s"
      (canon_to_string batched_crashed) (canon_to_string baseline)

(* Like [execute], but against the primary/standby cluster, and the
   fault is a controller kill instead of a switch crash: the primary is
   killed at [plan.crash_ms] (the beat timer promotes the standby) and
   restarted as a tailing standby [plan.down_ms] later. Ops follow
   {!Cl.endpoint}; one caught mid-failover raises [Unavailable] or
   [Deposed_primary] {e before} journaling anything and is re-queued at
   the front — submission order, and therefore every replayed
   identifier, stays deterministic. Returns the acting instance's
   intent fingerprint plus the canonical agent shadow. *)
let execute_cluster plan ~kill =
  let cs = Common.make_cluster ~seed:11 () in
  let stack = cs.Common.base in
  let cluster = cs.Common.cluster in
  let ctrl () = Cl.endpoint cluster in
  let mid, parts = Common.scallop_meeting stack ~participants:3 ~senders:2 () in
  Cl.start_health cluster;
  let live = ref (List.map fst parts) in
  let senders = ref [ fst (List.hd parts); fst (List.nth parts 1) ] in
  let next_index = ref 10 in
  let pending = ref [] in
  let busy = ref false in
  let rec drain () =
    match !pending with
    | [] -> ()
    | f :: rest -> (
        pending := rest;
        match f (ctrl ()) with
        | () -> drain ()
        | exception (C.Unavailable | C.Deposed_primary) ->
            pending := f :: !pending;
            Engine.schedule stack.Common.engine ~after:(Engine.ms 300) pump)
  and pump () =
    if not !busy then begin
      busy := true;
      Fun.protect ~finally:(fun () -> busy := false) drain
    end
  in
  let enqueue f =
    pending := !pending @ [ f ];
    pump ()
  in
  List.iteri
    (fun i op ->
      Engine.at stack.engine
        ~time:(Engine.sec (0.8 +. (1.0 *. float_of_int i)))
        (fun () ->
          match op with
          | Join send ->
              (* the client is registered when the timer fires, outside
                 the retried closure: a retry after a failover re-issues
                 the join, never a second host registration *)
              incr next_index;
              let client =
                Common.add_client stack.engine stack.network stack.rng
                  ~index:!next_index ()
              in
              enqueue (fun ctrl ->
                  let pid = C.join ctrl mid client ~send_media:send in
                  live := !live @ [ pid ];
                  if send then senders := !senders @ [ pid ])
          | Leave k ->
              enqueue (fun ctrl ->
                  if List.length !live > 1 then begin
                    let pid = List.nth !live (k mod List.length !live) in
                    C.leave ctrl pid;
                    live := List.filter (fun p -> p <> pid) !live;
                    senders := List.filter (fun p -> p <> pid) !senders
                  end)
          | Target (s, r, t) ->
              enqueue (fun ctrl ->
                  match List.filter (fun p -> List.mem p !live) !senders with
                  | [] -> ()
                  | ss -> (
                      let sender = List.nth ss (s mod List.length ss) in
                      match List.filter (fun p -> p <> sender) !live with
                      | [] -> ()
                      | rs ->
                          let receiver = List.nth rs (r mod List.length rs) in
                          C.set_pair_target ctrl ~sender ~receiver
                            (Av1.Dd.target_of_index t)))))
    plan.ops;
  if kill then begin
    Engine.at stack.engine
      ~time:(Engine.ms plan.crash_ms)
      (fun () -> Cl.kill_primary cluster);
    Engine.at stack.engine
      ~time:(Engine.ms (plan.crash_ms + plan.down_ms))
      (fun () -> Cl.restart_killed cluster)
  end;
  run_to stack 10.0;
  Cl.stop cluster;
  let ep = ctrl () in
  An.assert_clean
    ~what:(if kill then "killed-primary run" else "never-killed run")
    ep;
  digest_agrees_with_verifier ep;
  (match An.errors (An.check_cluster cluster) with
  | [] -> ()
  | fs ->
      Alcotest.failf "cluster invariants violated (%s): %s"
        (if kill then "killed" else "baseline")
        (String.concat "; " (List.map (fun f -> f.An.explanation) fs)));
  (C.intent_fingerprint ep, canon_agent stack.Common.agent)

let cluster_equiv_prop =
  QCheck.Test.make ~count:3
    ~name:"kill primary at any point + failover == never killed" plan_arb
    (fun plan ->
      let killed_fp, killed_agent = execute_cluster plan ~kill:true in
      let base_fp, base_agent = execute_cluster plan ~kill:false in
      if killed_fp <> base_fp then
        Printf.printf "--- killed-run intent:\n%s\n--- baseline intent:\n%s\n"
          killed_fp base_fp;
      if killed_agent <> base_agent then
        Printf.printf "--- killed-run agent:\n%s\n--- baseline agent:\n%s\n"
          (canon_to_string killed_agent)
          (canon_to_string base_agent);
      killed_fp = base_fp && killed_agent = base_agent)

let batched_equiv_prop =
  QCheck.Test.make ~count:3 ~name:"batched + crash mid-batch == per-op baseline"
    plan_arb
    (fun plan ->
      let batched_crashed = execute plan ~crash:true ~batch:true in
      let baseline = execute plan ~crash:false in
      if batched_crashed <> baseline then
        Printf.printf "--- batched crashed run:\n%s\n--- per-op baseline:\n%s\n"
          (canon_to_string batched_crashed) (canon_to_string baseline);
      batched_crashed = baseline)

let () =
  Alcotest.run "failover"
    [
      ( "recovery",
        [
          Alcotest.test_case "crash/restart resyncs from intent" `Quick
            crash_restart_resyncs;
          Alcotest.test_case "partition: media flows, one Sync heals" `Quick
            partition_heals_with_one_sync;
          Alcotest.test_case "reboot under an in-flight Sync converges" `Quick
            crash_under_in_flight_sync;
          Alcotest.test_case "reconcile repairs live drift" `Quick
            reconcile_repairs_drift;
          Alcotest.test_case "Sync is idempotent and repairs any drift" `Quick
            sync_repairs_any_drift;
          Alcotest.test_case "straddling flush never double-executes" `Quick
            straddling_flush_does_not_double_execute;
          Alcotest.test_case "flapping detector counts transitions" `Quick
            flapping_detector_counts_transitions;
          Alcotest.test_case "recovery log is a bounded ring" `Quick
            recovery_log_is_bounded;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "failover resumes service" `Quick
            cluster_failover_resumes_service;
          Alcotest.test_case "promote over in-sync agents keeps the data plane"
            `Quick promote_keeps_data_plane;
          Alcotest.test_case "lone controller survives kill, restart, promote"
            `Quick lone_controller_crash_rebuilds;
        ] );
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest ~verbose:false resync_equiv_prop;
          QCheck_alcotest.to_alcotest ~verbose:false batched_equiv_prop;
          QCheck_alcotest.to_alcotest ~verbose:false cluster_equiv_prop;
        ] );
    ]

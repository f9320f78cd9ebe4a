(* Receiver-side Google Congestion Control tests. *)

module G = Gcc.Estimator

(* Feed [seconds] of a 30 fps stream; [delay_of i] maps frame index to a
   one-way delay in ns (growing delay = queue building = overuse). *)
let drive ?(gcc = G.create ()) ~seconds ~delay_of () =
  let frames = int_of_float (seconds *. 30.0) in
  for i = 0 to frames - 1 do
    let departure = i * 33_333_333 in
    let arrival = departure + delay_of i in
    let rtp_ts = departure / 11111 in
    for p = 0 to 8 do
      G.on_packet gcc ~time_ns:(arrival + (p * 500_000)) ~rtp_ts ~size:1160
    done
  done;
  gcc

let stable_no_congestion () =
  let gcc = drive ~seconds:20.0 ~delay_of:(fun _ -> 5_000_000) () in
  Alcotest.(check bool) "no overuse" true (G.detector_state gcc <> G.Overuse);
  (* capped at 1.5x the ~2.5 Mb/s incoming rate, never collapses *)
  Alcotest.(check bool) "estimate healthy" true (G.estimate_bps gcc > 2_000_000)

let estimate_never_below_floor () =
  let gcc = drive ~seconds:10.0 ~delay_of:(fun i -> i * 1_000_000) () in
  Alcotest.(check bool) "floor" true (G.estimate_bps gcc >= 50_000)

let overuse_on_growing_delay () =
  let gcc = G.create () in
  (* steady for 5s, then delay grows 6 ms per frame (heavy queue build-up) *)
  let _ = drive ~gcc ~seconds:5.0 ~delay_of:(fun _ -> 5_000_000) () in
  let before = G.estimate_bps gcc in
  let frames0 = 150 in
  for i = 0 to 149 do
    let departure = (frames0 + i) * 33_333_333 in
    let arrival = departure + 5_000_000 + (i * 6_000_000) in
    let rtp_ts = departure / 11111 in
    for p = 0 to 8 do
      G.on_packet gcc ~time_ns:(arrival + (p * 500_000)) ~rtp_ts ~size:1160
    done
  done;
  Alcotest.(check bool) "estimate cut" true (G.estimate_bps gcc < before)

let remb_cadence () =
  let gcc = drive ~seconds:5.0 ~delay_of:(fun _ -> 1_000_000) () in
  let count = ref 0 in
  for ms = 0 to 4_999 do
    match G.poll_remb gcc ~time_ns:(ms * 1_000_000) with
    | Some _ -> incr count
    | None -> ()
  done;
  (* one REMB per 440 ms window *)
  Alcotest.(check bool) "cadence" true (!count >= 10 && !count <= 13)

let remb_immediate_on_drop () =
  let gcc = G.create () in
  ignore (G.poll_remb gcc ~time_ns:0);
  (* nothing new shortly after... *)
  Alcotest.(check bool) "throttled" true (G.poll_remb gcc ~time_ns:50_000_000 = None);
  (* ...unless the estimate collapses, then a REMB goes out immediately *)
  let _ = drive ~gcc ~seconds:5.0 ~delay_of:(fun i -> i * 3_000_000) () in
  Alcotest.(check bool) "estimate dropped" true (G.estimate_bps gcc < 3_000_000)

let receive_rate_measured () =
  let gcc = drive ~seconds:3.0 ~delay_of:(fun _ -> 0) () in
  let rate = G.receive_rate_bps gcc ~time_ns:(3 * 1_000_000_000) in
  (* 30 fps x 9 packets x 1160 B = 2.5 Mb/s *)
  Alcotest.(check bool) "about 2.5 Mb/s" true (rate > 2.0e6 && rate < 3.1e6)

let bounds_respected () =
  let gcc = G.create ~initial_bps:100_000 ~min_bps:80_000 ~max_bps:150_000 () in
  let _ = drive ~gcc ~seconds:10.0 ~delay_of:(fun _ -> 0) () in
  Alcotest.(check bool) "max clamp" true (G.estimate_bps gcc <= 150_000)

(* --- reference model ---------------------------------------------------------

   The list-based estimator the ring-buffer one replaced, kept as
   the executable spec: a newest-first (arrival, size) list filtered on
   every packet, and a newest-first sample list reversed for each
   regression. The ring-buffer estimator must give the same floats. *)
module Ref = struct
  type sample = { at_ms : float; accumulated_delay_ms : float }

  type t = {
    min_bps : int;
    max_bps : int;
    mutable estimate_bps : int;
    mutable group_ts : int;
    mutable group_first_arrival : int;
    mutable prev_group_ts : int;
    mutable prev_group_arrival : int;
    mutable have_prev_group : bool;
    mutable started : bool;
    mutable samples : sample list;
    mutable accumulated_delay_ms : float;
    mutable first_arrival_ms : float;
    mutable threshold_ms : float;
    mutable overuse_since : float;
    mutable detector : G.detector_state;
    mutable last_update_ms : float;
    mutable rate : G.rate_state;
    mutable last_increase_ms : float;
    mutable window : (int * int) list;
  }

  let create () =
    {
      min_bps = 50_000;
      max_bps = 20_000_000;
      estimate_bps = 3_000_000;
      group_ts = 0;
      group_first_arrival = 0;
      prev_group_ts = 0;
      prev_group_arrival = 0;
      have_prev_group = false;
      started = false;
      samples = [];
      accumulated_delay_ms = 0.0;
      first_arrival_ms = 0.0;
      threshold_ms = 12.5;
      overuse_since = 0.0;
      detector = G.Normal;
      last_update_ms = 0.0;
      rate = G.Increase;
      last_increase_ms = 0.0;
      window = [];
    }

  let rate_window_ns = 500_000_000

  let push_window t ~time_ns ~size =
    t.window <- (time_ns, size) :: t.window;
    let cutoff = time_ns - rate_window_ns in
    t.window <- List.filter (fun (ts, _) -> ts >= cutoff) t.window

  let receive_rate_bps t ~time_ns =
    let cutoff = time_ns - rate_window_ns in
    let bytes =
      List.fold_left (fun acc (ts, size) -> if ts >= cutoff then acc + size else acc) 0 t.window
    in
    float_of_int (bytes * 8) /. (float_of_int rate_window_ns /. 1e9)

  let trend_slope samples =
    let n = List.length samples in
    if n < 7 then 0.0
    else begin
      let xs = List.map (fun (s : sample) -> s.at_ms) samples in
      let ys = List.map (fun (s : sample) -> s.accumulated_delay_ms) samples in
      let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int n in
      let mx = mean xs and my = mean ys in
      let num = List.fold_left2 (fun acc x y -> acc +. ((x -. mx) *. (y -. my))) 0.0 xs ys in
      let den = List.fold_left (fun acc x -> acc +. ((x -. mx) ** 2.0)) 0.0 xs in
      if den = 0.0 then 0.0 else num /. den
    end

  let update_threshold t ~modified_trend ~now_ms =
    let abs_trend = Float.abs modified_trend in
    if abs_trend <= t.threshold_ms +. 15.0 then begin
      let k = if abs_trend < t.threshold_ms then 0.039 else 0.0087 in
      let dt = Float.min (now_ms -. t.last_update_ms) 100.0 in
      t.threshold_ms <- t.threshold_ms +. (k *. (abs_trend -. t.threshold_ms) *. dt);
      t.threshold_ms <- Float.max 6.0 (Float.min 600.0 t.threshold_ms)
    end;
    t.last_update_ms <- now_ms

  let detect t ~trend ~now_ms ~group_delta_ms =
    let modified = trend *. Float.min (float_of_int (List.length t.samples)) 60.0 *. 4.0 in
    let state =
      if modified > t.threshold_ms then begin
        if t.overuse_since = 0.0 then t.overuse_since <- now_ms -. group_delta_ms;
        if now_ms -. t.overuse_since >= 10.0 then G.Overuse else t.detector
      end
      else if modified < -.t.threshold_ms then begin
        t.overuse_since <- 0.0;
        G.Underuse
      end
      else begin
        t.overuse_since <- 0.0;
        G.Normal
      end
    in
    update_threshold t ~modified_trend:modified ~now_ms;
    t.detector <- state

  let aimd t ~time_ns =
    let now_ms = float_of_int time_ns /. 1e6 in
    let incoming = receive_rate_bps t ~time_ns in
    (match t.detector with
    | G.Overuse ->
        if t.rate <> G.Decrease then begin
          t.rate <- G.Decrease;
          let cut = int_of_float (0.85 *. incoming) in
          if cut > 0 && cut < t.estimate_bps then t.estimate_bps <- cut
        end
    | G.Underuse -> t.rate <- G.Hold
    | G.Normal -> (
        match t.rate with
        | G.Decrease | G.Hold ->
            t.rate <- G.Increase;
            t.last_increase_ms <- now_ms
        | G.Increase ->
            let dt_s = Float.max 0.0 ((now_ms -. t.last_increase_ms) /. 1000.0) in
            if dt_s > 0.0 then begin
              let factor = 1.08 ** Float.min dt_s 1.0 in
              let grown = float_of_int t.estimate_bps *. factor in
              let cap = if incoming > 0.0 then (1.5 *. incoming) +. 10_000.0 else grown in
              let next = Float.max (float_of_int t.estimate_bps) (Float.min grown cap) in
              t.estimate_bps <- int_of_float next;
              t.last_increase_ms <- now_ms
            end));
    t.estimate_bps <- max t.min_bps (min t.max_bps t.estimate_bps)

  let complete_group t ~time_ns =
    if t.have_prev_group then begin
      let arrival_delta_ms = float_of_int (t.group_first_arrival - t.prev_group_arrival) /. 1e6 in
      let departure_delta_ms = float_of_int (t.group_ts - t.prev_group_ts) /. 90.0 in
      let gradient = arrival_delta_ms -. departure_delta_ms in
      let now_ms = float_of_int time_ns /. 1e6 in
      if t.samples = [] then t.first_arrival_ms <- now_ms;
      t.accumulated_delay_ms <- t.accumulated_delay_ms +. gradient;
      let sample =
        { at_ms = now_ms -. t.first_arrival_ms; accumulated_delay_ms = t.accumulated_delay_ms }
      in
      t.samples <- sample :: t.samples;
      if List.length t.samples > 20 then t.samples <- List.filteri (fun i _ -> i < 20) t.samples;
      let trend = trend_slope (List.rev t.samples) in
      detect t ~trend ~now_ms ~group_delta_ms:arrival_delta_ms;
      aimd t ~time_ns
    end;
    t.prev_group_ts <- t.group_ts;
    t.prev_group_arrival <- t.group_first_arrival;
    t.have_prev_group <- true

  let on_packet t ~time_ns ~rtp_ts ~size =
    push_window t ~time_ns ~size;
    if not t.started then begin
      t.started <- true;
      t.group_ts <- rtp_ts;
      t.group_first_arrival <- time_ns
    end
    else if rtp_ts <= t.group_ts then ()
    else begin
      complete_group t ~time_ns;
      t.group_ts <- rtp_ts;
      t.group_first_arrival <- time_ns
    end
end

(* Random nondecreasing arrivals: each packet is (gap to the previous
   arrival in us, size, query offset from the arrival in us). Gaps reach
   past the 500 ms window so the ring empties and refills. *)
let gen_arrivals =
  QCheck.Gen.(
    list_size (1 -- 600)
      (triple
         (frequency [ (8, 0 -- 5_000); (2, 0 -- 0); (1, 0 -- 700_000) ])
         (1 -- 1500)
         (-700_000 -- 700_000)))

let prop_receive_rate_matches_list_window =
  QCheck.Test.make ~count:300 ~name:"receive_rate_bps = list window"
    (QCheck.make gen_arrivals)
    (fun pkts ->
      let g = G.create () and r = Ref.create () in
      let time_ns = ref 0 in
      List.for_all
        (fun (gap_us, size, query_us) ->
          time_ns := !time_ns + (gap_us * 1000);
          (* rtp_ts 0: every packet joins the first group, so only the
             window is exercised *)
          G.on_packet g ~time_ns:!time_ns ~rtp_ts:0 ~size;
          Ref.push_window r ~time_ns:!time_ns ~size;
          let q = !time_ns + (query_us * 1000) in
          Float.equal (G.receive_rate_bps g ~time_ns:q) (Ref.receive_rate_bps r ~time_ns:q)
          && Float.equal
               (G.receive_rate_bps g ~time_ns:!time_ns)
               (Ref.receive_rate_bps r ~time_ns:!time_ns))
        pkts)

(* Random frame streams: per frame a queueing-delay step (ms, a random
   walk that builds and drains queues), a packet count and size, and an
   optional late packet of the previous frame (a retransmission). *)
let gen_frames =
  QCheck.Gen.(
    list_size (20 -- 400)
      (quad (-6 -- 8) (1 -- 12) (200 -- 1400) (frequency [ (9, return false); (1, return true) ])))

let prop_estimator_matches_list_estimator =
  QCheck.Test.make ~count:200 ~name:"estimator = list-based estimator"
    (QCheck.make gen_frames)
    (fun frames ->
      let g = G.create () and r = Ref.create () in
      let delay = ref 0 and last = ref 0 in
      let same () =
        G.estimate_bps g = r.Ref.estimate_bps
        && G.detector_state g = r.Ref.detector
        && G.rate_state g = r.Ref.rate
      in
      let feed ~time_ns ~rtp_ts ~size =
        let time_ns = max !last time_ns in
        last := time_ns;
        G.on_packet g ~time_ns ~rtp_ts ~size;
        Ref.on_packet r ~time_ns ~rtp_ts ~size;
        same ()
      in
      let ok = ref true in
      List.iteri
        (fun i (step_ms, n, size, late) ->
          delay := max 0 (!delay + (step_ms * 1_000_000));
          let departure = i * 33_333_333 in
          let rtp_ts = departure / 11111 in
          for p = 0 to n - 1 do
            ok := !ok && feed ~time_ns:(departure + !delay + (p * 500_000)) ~rtp_ts ~size
          done;
          if late && i > 0 then begin
            let rtp_ts = (i - 1) * 33_333_333 / 11111 in
            ok := !ok && feed ~time_ns:(departure + !delay + (n * 500_000)) ~rtp_ts ~size
          end)
        frames;
      !ok)

(* A receive connection that never carries video keeps an estimator that
   never sees a packet: it holds no rings, 26 words (the list-based
   estimator was 29). *)
let idle_estimator_footprint () =
  let words = Obj.reachable_words (Obj.repr (G.create ())) in
  Alcotest.(check bool) (Printf.sprintf "idle estimator %d words <= 26" words) true (words <= 26)

(* In steady state the rate window and trendline rings are full-grown and
   nothing is rebuilt per packet: what remains is a few boxed floats per
   completed frame (the list-based estimator allocated ~480 words per
   packet). *)
let on_packet_does_not_allocate () =
  let gcc = drive ~seconds:5.0 ~delay_of:(fun _ -> 5_000_000) () in
  let frames = 1500 and per_frame = 9 in
  let before = Gc.minor_words () in
  for i = 150 to 150 + frames - 1 do
    let departure = i * 33_333_333 in
    let arrival = departure + 5_000_000 + ((i land 7) * 1_000_000) in
    let rtp_ts = departure / 11111 in
    for p = 0 to per_frame - 1 do
      G.on_packet gcc ~time_ns:(arrival + (p * 500_000)) ~rtp_ts ~size:1160
    done
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int (frames * per_frame) in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per packet <= 16" words)
    true (words <= 16.0)

let () =
  Alcotest.run "gcc"
    [
      ( "estimator",
        [
          Alcotest.test_case "stable without congestion" `Quick stable_no_congestion;
          Alcotest.test_case "floor respected" `Quick estimate_never_below_floor;
          Alcotest.test_case "overuse on growing delay" `Quick overuse_on_growing_delay;
          Alcotest.test_case "remb cadence" `Quick remb_cadence;
          Alcotest.test_case "remb immediate on drop" `Quick remb_immediate_on_drop;
          Alcotest.test_case "receive rate" `Quick receive_rate_measured;
          Alcotest.test_case "bounds" `Quick bounds_respected;
          Alcotest.test_case "on_packet does not allocate" `Quick on_packet_does_not_allocate;
          Alcotest.test_case "idle estimator footprint" `Quick idle_estimator_footprint;
        ] );
      ( "reference",
        List.map QCheck_alcotest.to_alcotest
          [ prop_receive_rate_matches_list_window; prop_estimator_matches_list_estimator ] );
    ]

type detector_state = Underuse | Normal | Overuse
type rate_state = Increase | Hold | Decrease

(* Per-packet state, allocated by the first packet. The receive-rate
   window is a FIFO ring of arrival times (ns) and sizes, oldest at
   [head], [len] entries summing to [bytes]; its capacity is a power of
   two, doubled when full. The trendline keeps its last [trend_window]
   samples in a fixed ring, oldest at [oldest]. *)
type rings = {
  mutable ts : int array;
  mutable sizes : int array;
  mutable head : int;
  mutable len : int;
  mutable bytes : int;
  at_ms : float array;
  delay_ms : float array;
  mutable oldest : int;
  mutable count : int;
}

type t = {
  min_bps : int;
  max_bps : int;
  mutable estimate_bps : int;
  (* grouping: packets sharing an RTP timestamp form a group (a frame) *)
  mutable group_ts : int;  (** RTP timestamp of the current group *)
  mutable group_first_arrival : int;
  mutable prev_group_ts : int;
  mutable prev_group_arrival : int;
  mutable have_prev_group : bool;
  (* trendline *)
  mutable accumulated_delay_ms : float;
  mutable first_arrival_ms : float;
  (* adaptive threshold detector *)
  mutable threshold_ms : float;
  mutable overuse_since : float;  (** ms timestamp when trend first exceeded *)
  mutable detector : detector_state;
  mutable last_update_ms : float;
  (* AIMD *)
  mutable rate : rate_state;
  mutable last_increase_ms : float;
  (* receive-rate window and trendline rings; allocated by the first packet *)
  mutable rings : rings option;
  (* REMB scheduling *)
  mutable last_remb_ms : float;
  mutable last_remb_value : int;
}

let trend_window = 20
let ticks_per_ms = 90.0

(* Browsers start the remote estimate near the expected media rate rather
   than probing up from zero; a low start would make the SFU drop layers
   immediately, and with layers dropped the receive-rate cap would pin the
   estimate below the full stream forever (the classic SFU/REMB spiral). *)
let create ?(initial_bps = 3_000_000) ?(min_bps = 50_000) ?(max_bps = 20_000_000) () =
  {
    min_bps;
    max_bps;
    estimate_bps = initial_bps;
    group_ts = 0;
    group_first_arrival = 0;
    prev_group_ts = 0;
    prev_group_arrival = 0;
    have_prev_group = false;
    accumulated_delay_ms = 0.0;
    first_arrival_ms = 0.0;
    threshold_ms = 12.5;
    overuse_since = 0.0;
    detector = Normal;
    last_update_ms = 0.0;
    rate = Increase;
    last_increase_ms = 0.0;
    rings = None;
    last_remb_ms = neg_infinity;
    last_remb_value = initial_bps;
  }

(* --- receive-rate measurement ------------------------------------------- *)

let rate_window_ns = 500_000_000

let window_initial_capacity = 16

(* Copy the ring, oldest first, into arrays of twice the capacity. *)
let grow_window w =
  let cap = Array.length w.ts in
  let ts = Array.make (2 * cap) 0 and sizes = Array.make (2 * cap) 0 in
  for i = 0 to w.len - 1 do
    let j = (w.head + i) land (cap - 1) in
    ts.(i) <- w.ts.(j);
    sizes.(i) <- w.sizes.(j)
  done;
  w.ts <- ts;
  w.sizes <- sizes;
  w.head <- 0

(* Arrivals are nondecreasing, so the entries older than a cutoff are
   always a prefix of the ring. *)
let push_window w ~time_ns ~size =
  if w.len = Array.length w.ts then grow_window w;
  let mask = Array.length w.ts - 1 in
  let tail = (w.head + w.len) land mask in
  w.ts.(tail) <- time_ns;
  w.sizes.(tail) <- size;
  w.len <- w.len + 1;
  w.bytes <- w.bytes + size;
  let cutoff = time_ns - rate_window_ns in
  while w.ts.(w.head) < cutoff do
    w.bytes <- w.bytes - w.sizes.(w.head);
    w.head <- (w.head + 1) land mask;
    w.len <- w.len - 1
  done

let window_bytes w ~time_ns =
  let cutoff = time_ns - rate_window_ns in
  let mask = Array.length w.ts - 1 in
  let bytes = ref w.bytes and i = ref 0 in
  while !i < w.len && w.ts.((w.head + !i) land mask) < cutoff do
    bytes := !bytes - w.sizes.((w.head + !i) land mask);
    incr i
  done;
  !bytes

let receive_rate_bps t ~time_ns =
  let bytes = match t.rings with Some w -> window_bytes w ~time_ns | None -> 0 in
  float_of_int (bytes * 8) /. (float_of_int rate_window_ns /. 1e9)

(* --- trendline slope ------------------------------------------------------

   Least-squares slope of accumulated delay vs time over the sample window,
   matching libwebrtc's TrendlineEstimator. Walks the ring oldest to
   newest; each sum accumulates in that order, so the result is the same
   double a left fold over the oldest-first sample list gives. *)
let trend_index tr k =
  let j = tr.oldest + k in
  if j >= trend_window then j - trend_window else j

let trend_slope tr =
  let n = tr.count in
  if n < 7 then 0.0
  else begin
    let sx = ref 0.0 and sy = ref 0.0 in
    for k = 0 to n - 1 do
      let j = trend_index tr k in
      sx := !sx +. tr.at_ms.(j);
      sy := !sy +. tr.delay_ms.(j)
    done;
    let mx = !sx /. float_of_int n and my = !sy /. float_of_int n in
    let num = ref 0.0 and den = ref 0.0 in
    for k = 0 to n - 1 do
      let j = trend_index tr k in
      let x = tr.at_ms.(j) in
      num := !num +. ((x -. mx) *. (tr.delay_ms.(j) -. my));
      den := !den +. ((x -. mx) ** 2.0)
    done;
    if !den = 0.0 then 0.0 else !num /. !den
  end

(* Append a sample, overwriting the oldest once the ring is full. *)
let push_sample tr ~at_ms ~delay_ms =
  let j = trend_index tr tr.count in
  tr.at_ms.(j) <- at_ms;
  tr.delay_ms.(j) <- delay_ms;
  if tr.count < trend_window then tr.count <- tr.count + 1
  else tr.oldest <- (if tr.oldest = trend_window - 1 then 0 else tr.oldest + 1)

(* --- adaptive threshold (libwebrtc k_up/k_down) -------------------------- *)

let k_up = 0.0087
let k_down = 0.039

let update_threshold t ~modified_trend ~now_ms =
  let abs_trend = Float.abs modified_trend in
  if abs_trend <= t.threshold_ms +. 15.0 then begin
    let k = if abs_trend < t.threshold_ms then k_down else k_up in
    let dt = Float.min (now_ms -. t.last_update_ms) 100.0 in
    t.threshold_ms <- t.threshold_ms +. (k *. (abs_trend -. t.threshold_ms) *. dt);
    t.threshold_ms <- Float.max 6.0 (Float.min 600.0 t.threshold_ms)
  end;
  t.last_update_ms <- now_ms

let overuse_time_threshold_ms = 10.0

let detect t ~trend ~samples ~now_ms ~group_delta_ms =
  (* scale trend the way libwebrtc does: by number of deltas and a gain *)
  let modified = trend *. Float.min (float_of_int samples) 60.0 *. 4.0 in
  let state =
    if modified > t.threshold_ms then begin
      if t.overuse_since = 0.0 then t.overuse_since <- now_ms -. group_delta_ms;
      if now_ms -. t.overuse_since >= overuse_time_threshold_ms then Overuse
      else t.detector
    end
    else if modified < -.t.threshold_ms then begin
      t.overuse_since <- 0.0;
      Underuse
    end
    else begin
      t.overuse_since <- 0.0;
      Normal
    end
  in
  update_threshold t ~modified_trend:modified ~now_ms;
  t.detector <- state

(* --- AIMD ----------------------------------------------------------------- *)

let aimd t ~time_ns =
  let now_ms = float_of_int time_ns /. 1e6 in
  let incoming = receive_rate_bps t ~time_ns in
  (match t.detector with
  | Overuse ->
      if t.rate <> Decrease then begin
        t.rate <- Decrease;
        let cut = int_of_float (0.85 *. incoming) in
        if cut > 0 && cut < t.estimate_bps then t.estimate_bps <- cut
      end
  | Underuse -> t.rate <- Hold
  | Normal -> (
      match t.rate with
      | Decrease | Hold ->
          t.rate <- Increase;
          t.last_increase_ms <- now_ms
      | Increase ->
          let dt_s = Float.max 0.0 ((now_ms -. t.last_increase_ms) /. 1000.0) in
          if dt_s > 0.0 then begin
            (* multiplicative increase, 8%/s; the measured-rate cap bounds
               growth but never pulls an existing estimate down (decreases
               are the overuse detector's job) *)
            let factor = 1.08 ** Float.min dt_s 1.0 in
            let grown = float_of_int t.estimate_bps *. factor in
            let cap =
              if incoming > 0.0 then (1.5 *. incoming) +. 10_000.0 else grown
            in
            let next = Float.max (float_of_int t.estimate_bps) (Float.min grown cap) in
            t.estimate_bps <- int_of_float next;
            t.last_increase_ms <- now_ms
          end));
  t.estimate_bps <- max t.min_bps (min t.max_bps t.estimate_bps)

(* --- group accounting ------------------------------------------------------ *)

(* Inter-group deltas use the *first* arrival of each group: frames are
   paced onto the wire, so last-packet times vary with frame size even on
   an idle path, while first-packet times track queueing delay only. *)
let complete_group t tr ~time_ns =
  if t.have_prev_group then begin
    let arrival_delta_ms =
      float_of_int (t.group_first_arrival - t.prev_group_arrival) /. 1e6
    in
    let departure_delta_ms =
      float_of_int (t.group_ts - t.prev_group_ts) /. ticks_per_ms
    in
    let gradient = arrival_delta_ms -. departure_delta_ms in
    let now_ms = float_of_int time_ns /. 1e6 in
    if tr.count = 0 then t.first_arrival_ms <- now_ms;
    t.accumulated_delay_ms <- t.accumulated_delay_ms +. gradient;
    push_sample tr ~at_ms:(now_ms -. t.first_arrival_ms) ~delay_ms:t.accumulated_delay_ms;
    detect t ~trend:(trend_slope tr) ~samples:tr.count ~now_ms ~group_delta_ms:arrival_delta_ms;
    aimd t ~time_ns
  end;
  t.prev_group_ts <- t.group_ts;
  t.prev_group_arrival <- t.group_first_arrival;
  t.have_prev_group <- true

let on_packet t ~time_ns ~rtp_ts ~size =
  match t.rings with
  | None ->
      (* the first packet allocates the rings and opens the first group *)
      let r =
        {
          ts = Array.make window_initial_capacity 0;
          sizes = Array.make window_initial_capacity 0;
          head = 0;
          len = 0;
          bytes = 0;
          at_ms = Array.make trend_window 0.0;
          delay_ms = Array.make trend_window 0.0;
          oldest = 0;
          count = 0;
        }
      in
      t.rings <- Some r;
      push_window r ~time_ns ~size;
      t.group_ts <- rtp_ts;
      t.group_first_arrival <- time_ns
  | Some r ->
      push_window r ~time_ns ~size;
      (* a later packet of the current group, or a retransmission or
         reordered packet of an older frame, counts toward the receive
         rate only: an old group would corrupt the inter-group delay
         filter (libwebrtc likewise discards old groups) *)
      if rtp_ts > t.group_ts then begin
        complete_group t r ~time_ns;
        t.group_ts <- rtp_ts;
        t.group_first_arrival <- time_ns
      end

let estimate_bps t = t.estimate_bps
let detector_state t = t.detector
let rate_state t = t.rate

let remb_interval_ms = 440.0

let poll_remb t ~time_ns =
  let now_ms = float_of_int time_ns /. 1e6 in
  let dropped_sharply =
    float_of_int t.estimate_bps < 0.97 *. float_of_int t.last_remb_value
  in
  if now_ms -. t.last_remb_ms >= remb_interval_ms || dropped_sharply then begin
    t.last_remb_ms <- now_ms;
    t.last_remb_value <- t.estimate_bps;
    Some t.estimate_bps
  end
  else None

type t = { bin_ns : int; tbl : (int, float) Hashtbl.t }

let create ~bin_ns =
  if bin_ns <= 0 then invalid_arg "Timeseries.create: bin_ns";
  { bin_ns; tbl = Hashtbl.create 16 }

let bin_of t time = time / t.bin_ns

let add t time value =
  let b = bin_of t time in
  let cur = Option.value (Hashtbl.find_opt t.tbl b) ~default:0.0 in
  Hashtbl.replace t.tbl b (cur +. value)

let incr t time = add t time 1.0
let bin_ns t = t.bin_ns

let bins t =
  if Hashtbl.length t.tbl = 0 then [||]
  else begin
    let lo = ref max_int and hi = ref min_int in
    Hashtbl.iter
      (fun b _ ->
        if b < !lo then lo := b;
        if b > !hi then hi := b)
      t.tbl;
    Array.init
      (!hi - !lo + 1)
      (fun i ->
        let b = !lo + i in
        let v = Option.value (Hashtbl.find_opt t.tbl b) ~default:0.0 in
        (b * t.bin_ns, v))
  end

let rates_per_second t =
  let bin_s = float_of_int t.bin_ns /. 1e9 in
  Array.map (fun (time, v) -> (float_of_int time /. 1e9, v /. bin_s)) (bins t)

let fold t ~init ~f =
  Array.fold_left (fun acc (time, v) -> f acc time v) init (bins t)

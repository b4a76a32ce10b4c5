(* Measurement plumbing: latency samples, their quantiles and drift. *)

module Metrics = Swm_xlib.Metrics

let now_ns = Metrics.now_mono_ns

(* -------- latency samples -------- *)

(* Samples live in a Bigarray, outside the OCaml heap: a run's sample count
   follows the host's speed, and arrays that doubled on the major heap
   would move the heap's top by megabytes from one run to the next. *)
type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type samples = { mutable data : buf; mutable len : int }

let buf n : buf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n
let samples () = { data = buf 4096; len = 0 }

let add s v =
  if s.len = Bigarray.Array1.dim s.data then begin
    let bigger = buf (2 * s.len) in
    Bigarray.Array1.blit s.data (Bigarray.Array1.sub bigger 0 s.len);
    s.data <- bigger
  end;
  s.data.{s.len} <- v;
  s.len <- s.len + 1

let get s i = s.data.{i}

let sorted s =
  let a = Array.init s.len (get s) in
  Array.sort compare a;
  a

(* Nearest-rank quantile of a sorted array; 0 when empty. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* Nearest-rank quantile of a list of floats; 0 when empty. *)
let quantile_float l q =
  match List.sort compare l with
  | [] -> 0.0
  | sorted ->
      let n = List.length sorted in
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
      List.nth sorted (max 0 (min (n - 1) (rank - 1)))

(* The samples cut into [k] runs of equal count, oldest first, each
   sorted. *)
let blocks s k =
  let k = max 1 (min k s.len) in
  List.init k (fun i ->
      let lo = i * s.len / k and hi = (i + 1) * s.len / k in
      let a = Array.init (hi - lo) (fun j -> get s (lo + j)) in
      Array.sort compare a;
      a)

let pct_change ~from x = 100.0 *. ((float_of_int x /. float_of_int (max 1 from)) -. 1.0)

(* The median of the last tenth of the samples against the first tenth,
   in percent: a per-action cost that grows with run length shows here. *)
let drift_pct s =
  if s.len < 100 then 0.0
  else
    let tenths = Array.of_list (List.map (fun b -> quantile b 0.5) (blocks s 10)) in
    pct_change ~from:tenths.(0) tenths.(9)

(* Growth of the mean per-action cost over the run, robust to a few
   seconds of interference from other tenants on a shared host: the
   cheapest tenth of the last three against the cheapest of the first
   three.  Unlike the median, the mean also sees work that runs only every
   few actions, such as the governor's scan of every connection. *)
let sustained_drift_pct s =
  if s.len < 100 then 0.0
  else
    let mean i =
      let lo = i * s.len / 10 and hi = (i + 1) * s.len / 10 in
      let sum = ref 0 in
      for j = lo to hi - 1 do
        sum := !sum + get s j
      done;
      !sum / (hi - lo)
    in
    let cheapest lo = min (mean lo) (min (mean (lo + 1)) (mean (lo + 2))) in
    pct_change ~from:(cheapest 0) (cheapest 7)

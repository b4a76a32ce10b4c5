type counter = { mutable c : int }
type gauge = { mutable g : int }

(* log2 buckets: index i counts samples whose value v satisfies
   2^(i-1) <= v+1 < 2^i, i.e. upper bounds 0, 1, 3, 7, 15, ... *)
let buckets = 32

type histogram = {
  counts : int array;
  mutable hcount : int;
  mutable hsum : int;
  mutable hmax : int;
}

(* A labeled family is one logical series ("functions.calls") fanned out by a
   single label key ("fn").  Cardinality is bounded: the first [max] distinct
   label values get their own series, every later value collapses into the
   "other" series and bumps the registry-wide [metrics.label_overflow]
   counter — a hostile client-id explosion cannot grow the registry without
   bound. *)
type counter_family = {
  cf_key : string;
  cf_max : int;
  cf_series : (string, counter) Hashtbl.t;
  cf_overflow : counter;
}

type histogram_family = {
  hf_key : string;
  hf_max : int;
  hf_series : (string, histogram) Hashtbl.t;
  hf_overflow : counter;
}

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
  c_families : (string, counter_family) Hashtbl.t;
  h_families : (string, histogram_family) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 8;
    histograms = Hashtbl.create 8;
    c_families = Hashtbl.create 8;
    h_families = Hashtbl.create 4;
  }

let find_or_create tbl name mk =
  match Hashtbl.find_opt tbl name with
  | Some v -> v
  | None ->
      let v = mk () in
      Hashtbl.replace tbl name v;
      v

let counter t name = find_or_create t.counters name (fun () -> { c = 0 })
let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let value c = c.c

let counter_value t name =
  match Hashtbl.find_opt t.counters name with Some c -> c.c | None -> 0

let gauge t name = find_or_create t.gauges name (fun () -> { g = 0 })
let record_max g n = if n > g.g then g.g <- n

let gauge_value t name =
  match Hashtbl.find_opt t.gauges name with Some g -> g.g | None -> 0

let histogram t name =
  find_or_create t.histograms name (fun () ->
      { counts = Array.make buckets 0; hcount = 0; hsum = 0; hmax = 0 })

(* A sample's bucket is its bit length, capped at the last bucket.  Both
   functions are closed and int-typed, so an observation allocates nothing
   and compares without the polymorphic primitives. *)
let rec bit_length n v = if v <= 0 then n else bit_length (n + 1) (v lsr 1)

let bucket_of v =
  let b = bit_length 0 v in
  if b >= buckets then buckets - 1 else b

let bucket_upper i = (1 lsl i) - 1

let observe h v =
  let b = bucket_of v in
  h.counts.(b) <- h.counts.(b) + 1;
  h.hcount <- h.hcount + 1;
  if v > 0 then h.hsum <- h.hsum + v;
  if v > h.hmax then h.hmax <- v

let hist_count h = h.hcount
let hist_sum h = h.hsum
let hist_max h = h.hmax

(* -------- labeled families -------- *)

let overflow_label = "other"
let overflow_counter_name = "metrics.label_overflow"

let counter_family t ?(max_series = 32) ~key name =
  find_or_create t.c_families name (fun () ->
      {
        cf_key = key;
        cf_max = max 1 max_series;
        cf_series = Hashtbl.create 8;
        cf_overflow = counter t overflow_counter_name;
      })

let histogram_family t ?(max_series = 32) ~key name =
  find_or_create t.h_families name (fun () ->
      {
        hf_key = key;
        hf_max = max 1 max_series;
        hf_series = Hashtbl.create 8;
        hf_overflow = counter t overflow_counter_name;
      })

(* Real labels are capped at [max]; "other" rides on top, so the family holds
   at most max + 1 series.  Each lookup of a rejected label counts one
   overflow (hot paths cache the returned handle, so in practice overflow
   increments once per rejected label). *)
let family_slot series maxn overflow label =
  if Hashtbl.mem series label || String.equal label overflow_label then label
  else begin
    let real =
      Hashtbl.length series - (if Hashtbl.mem series overflow_label then 1 else 0)
    in
    if real < maxn then label
    else begin
      incr overflow;
      overflow_label
    end
  end

let labeled_counter fam label =
  let label = family_slot fam.cf_series fam.cf_max fam.cf_overflow label in
  find_or_create fam.cf_series label (fun () -> { c = 0 })

let labeled_histogram fam label =
  let label = family_slot fam.hf_series fam.hf_max fam.hf_overflow label in
  find_or_create fam.hf_series label (fun () ->
      { counts = Array.make buckets 0; hcount = 0; hsum = 0; hmax = 0 })

let counter_family_key fam = fam.cf_key

let counter_family_labels fam =
  List.sort String.compare
    (Hashtbl.fold (fun k _ acc -> k :: acc) fam.cf_series [])

let labeled_counter_value t name label =
  match Hashtbl.find_opt t.c_families name with
  | None -> 0
  | Some fam -> (
      match Hashtbl.find_opt fam.cf_series label with
      | Some c -> c.c
      | None -> 0)

(* The one clock: monotonic wall time (CLOCK_MONOTONIC via bechamel's
   stubs).  Spans, the recorder, the ledger and every timing series read
   it, so their numbers are directly comparable. *)
let clock_reads_total = { c = 0 }

let now_mono_ns () =
  clock_reads_total.c <- clock_reads_total.c + 1;
  Int64.to_int (Monotonic_clock.now ())

let clock_reads () = clock_reads_total.c

let time_mono_ns t name f =
  let h = histogram t name in
  let t0 = now_mono_ns () in
  let r = f () in
  let t1 = now_mono_ns () in
  observe h (t1 - t0);
  r

(* Quantile estimate from the log2 buckets: find the bucket holding the
   q-th sample and interpolate linearly inside it.  Error is bounded by
   the bucket width (a factor of 2), which is fine for p50/p99 summary
   lines; exact values need the raw samples we deliberately do not keep. *)
let hist_quantile h q =
  if h.hcount = 0 then 0.
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let target = q *. float_of_int h.hcount in
    let rec go i cum =
      if i >= buckets then float_of_int h.hmax
      else begin
        let c = h.counts.(i) in
        if c > 0 && float_of_int (cum + c) >= target then begin
          let lower = if i = 0 then 0. else float_of_int (bucket_upper (i - 1) + 1) in
          let upper = float_of_int (min (bucket_upper i) h.hmax) in
          let within = Float.max 0. ((target -. float_of_int cum) /. float_of_int c) in
          Float.min upper (lower +. ((upper -. lower) *. within))
        end
        else go (i + 1) (cum + c)
      end
    in
    go 0 0
  end

let reset_hist h =
  Array.fill h.counts 0 buckets 0;
  h.hcount <- 0;
  h.hsum <- 0;
  h.hmax <- 0

let reset t =
  Hashtbl.iter (fun _ c -> c.c <- 0) t.counters;
  Hashtbl.iter (fun _ g -> g.g <- 0) t.gauges;
  Hashtbl.iter (fun _ h -> reset_hist h) t.histograms;
  Hashtbl.iter
    (fun _ fam -> Hashtbl.iter (fun _ c -> c.c <- 0) fam.cf_series)
    t.c_families;
  Hashtbl.iter
    (fun _ fam -> Hashtbl.iter (fun _ h -> reset_hist h) fam.hf_series)
    t.h_families

let sorted_bindings tbl =
  List.sort (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Series names are [A-Za-z0-9._-] by convention; escape anyway so a stray
   name cannot corrupt the dump. *)
let json_string = Json.escape

let hist_json h =
  let bucket_list = ref [] in
  for i = buckets - 1 downto 0 do
    if h.counts.(i) > 0 then
      bucket_list :=
        Printf.sprintf "[%d,%d]" (bucket_upper i) h.counts.(i) :: !bucket_list
  done;
  Printf.sprintf
    "{\"count\":%d,\"sum\":%d,\"max\":%d,\"p50\":%.1f,\"p99\":%.1f,\"p999\":%.1f,\"buckets\":[%s]}"
    h.hcount h.hsum h.hmax (hist_quantile h 0.5) (hist_quantile h 0.99)
    (hist_quantile h 0.999)
    (String.concat "," !bucket_list)

let to_json t =
  let obj entries = "{" ^ String.concat "," entries ^ "}" in
  let counters =
    List.map
      (fun (name, c) -> Printf.sprintf "%s:%d" (json_string name) c.c)
      (sorted_bindings t.counters)
  in
  let gauges =
    List.map
      (fun (name, g) -> Printf.sprintf "%s:%d" (json_string name) g.g)
      (sorted_bindings t.gauges)
  in
  let hists =
    List.map
      (fun (name, h) -> Printf.sprintf "%s:%s" (json_string name) (hist_json h))
      (sorted_bindings t.histograms)
  in
  let labeled =
    List.map
      (fun (name, fam) ->
        Printf.sprintf "%s:{\"key\":%s,\"series\":%s}" (json_string name)
          (json_string fam.cf_key)
          (obj
             (List.map
                (fun (l, c) -> Printf.sprintf "%s:%d" (json_string l) c.c)
                (sorted_bindings fam.cf_series))))
      (sorted_bindings t.c_families)
  in
  let labeled_hists =
    List.map
      (fun (name, fam) ->
        Printf.sprintf "%s:{\"key\":%s,\"series\":%s}" (json_string name)
          (json_string fam.hf_key)
          (obj
             (List.map
                (fun (l, h) ->
                  Printf.sprintf "%s:%s" (json_string l) (hist_json h))
                (sorted_bindings fam.hf_series))))
      (sorted_bindings t.h_families)
  in
  obj
    [
      "\"counters\":" ^ obj counters;
      "\"gauges\":" ^ obj gauges;
      "\"histograms\":" ^ obj hists;
      "\"labeled\":" ^ obj labeled;
      "\"labeled_histograms\":" ^ obj labeled_hists;
    ]

let pp ppf t =
  List.iter
    (fun (name, c) -> Format.fprintf ppf "%s = %d@." name c.c)
    (sorted_bindings t.counters);
  List.iter
    (fun (name, g) -> Format.fprintf ppf "%s (max) = %d@." name g.g)
    (sorted_bindings t.gauges);
  List.iter
    (fun (name, h) ->
      Format.fprintf ppf "%s: count=%d sum=%d max=%d@." name h.hcount h.hsum h.hmax)
    (sorted_bindings t.histograms)

(* Prometheus text exposition (version 0.0.4).  Series names here use dots;
   Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*, so everything else
   maps to '_' and the whole family gets an "swm_" prefix. *)
let prometheus_name name =
  let buf = Buffer.create (String.length name + 4) in
  Buffer.add_string buf "swm_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  Buffer.contents buf

(* Label names share the metric-name alphabet (minus the prefix); label
   values are free-form, so the exposition format's three escapes apply:
   backslash, double quote, line feed. *)
let prometheus_label_name key =
  let buf = Buffer.create (String.length key) in
  String.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> Buffer.add_char buf c
      | '0' .. '9' when i > 0 -> Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    key;
  Buffer.contents buf

let prometheus_label_value v =
  let buf = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  List.iter
    (fun (name, c) ->
      let pname = prometheus_name name ^ "_total" in
      line "# TYPE %s counter" pname;
      line "%s %d" pname c.c)
    (sorted_bindings t.counters);
  List.iter
    (fun (name, g) ->
      let pname = prometheus_name name in
      line "# TYPE %s gauge" pname;
      line "%s %d" pname g.g)
    (sorted_bindings t.gauges);
  List.iter
    (fun (name, h) ->
      let pname = prometheus_name name in
      line "# TYPE %s histogram" pname;
      (* Cumulative buckets; only boundaries where the count advances are
         written (plus the mandatory +Inf), which keeps a 32-bucket log2
         histogram to a handful of lines. *)
      let cum = ref 0 in
      for i = 0 to buckets - 1 do
        if h.counts.(i) > 0 then begin
          cum := !cum + h.counts.(i);
          line "%s_bucket{le=\"%d\"} %d" pname (bucket_upper i) !cum
        end
      done;
      line "%s_bucket{le=\"+Inf\"} %d" pname h.hcount;
      line "%s_sum %d" pname h.hsum;
      line "%s_count %d" pname h.hcount)
    (sorted_bindings t.histograms);
  List.iter
    (fun (name, fam) ->
      let pname = prometheus_name name ^ "_total" in
      let key = prometheus_label_name fam.cf_key in
      line "# TYPE %s counter" pname;
      List.iter
        (fun (lv, c) ->
          line "%s{%s=\"%s\"} %d" pname key (prometheus_label_value lv) c.c)
        (sorted_bindings fam.cf_series))
    (sorted_bindings t.c_families);
  List.iter
    (fun (name, fam) ->
      let pname = prometheus_name name in
      let key = prometheus_label_name fam.hf_key in
      line "# TYPE %s histogram" pname;
      List.iter
        (fun (lv, h) ->
          let lbl = Printf.sprintf "%s=\"%s\"" key (prometheus_label_value lv) in
          let cum = ref 0 in
          for i = 0 to buckets - 1 do
            if h.counts.(i) > 0 then begin
              cum := !cum + h.counts.(i);
              line "%s_bucket{%s,le=\"%d\"} %d" pname lbl (bucket_upper i) !cum
            end
          done;
          line "%s_bucket{%s,le=\"+Inf\"} %d" pname lbl h.hcount;
          line "%s_sum{%s} %d" pname lbl h.hsum;
          line "%s_count{%s} %d" pname lbl h.hcount)
        (sorted_bindings fam.hf_series))
    (sorted_bindings t.h_families);
  Buffer.contents buf

(* Top talkers: a family's series sorted by value descending (ties broken by
   label so the order is stable), truncated to [n]. *)
let family_top fam n =
  let series =
    Hashtbl.fold (fun label c acc -> (label, c.c) :: acc) fam.cf_series []
  in
  let sorted =
    List.sort
      (fun (la, va) (lb, vb) ->
        if va <> vb then compare vb va else String.compare la lb)
      series
  in
  List.filteri (fun i _ -> i < n) sorted

let top_json t ?(n = 8) () =
  let fams =
    List.map
      (fun (name, fam) ->
        Printf.sprintf "%s:{\"key\":%s,\"top\":[%s]}" (json_string name)
          (json_string fam.cf_key)
          (String.concat ","
             (List.map
                (fun (label, v) ->
                  Printf.sprintf "{\"label\":%s,\"value\":%d}"
                    (json_string label) v)
                (family_top fam n))))
      (sorted_bindings t.c_families)
  in
  "{" ^ String.concat "," fams ^ "}"

let table_top_n = 5

let to_table t =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  if Hashtbl.length t.counters > 0 then begin
    line "counters:";
    List.iter
      (fun (name, c) -> line "  %-36s %12d" name c.c)
      (sorted_bindings t.counters)
  end;
  if Hashtbl.length t.gauges > 0 then begin
    line "gauges (recorded maxima):";
    List.iter
      (fun (name, g) -> line "  %-36s %12d" name g.g)
      (sorted_bindings t.gauges)
  end;
  if Hashtbl.length t.histograms > 0 then begin
    line "histograms:";
    List.iter
      (fun (name, h) ->
        line "  %-36s count=%-8d p50=%-10.0f p99=%-10.0f p999=%-10.0f max=%d"
          name h.hcount (hist_quantile h 0.5) (hist_quantile h 0.99)
          (hist_quantile h 0.999) h.hmax)
      (sorted_bindings t.histograms)
  end;
  if Hashtbl.length t.c_families > 0 then begin
    line "labeled counters (top %d per family):" table_top_n;
    List.iter
      (fun (name, fam) ->
        line "  %s{%s}:" name fam.cf_key;
        List.iter
          (fun (label, v) -> line "    %-34s %12d" label v)
          (family_top fam table_top_n))
      (sorted_bindings t.c_families)
  end;
  Buffer.contents buf

(* -------- time-series sampler -------- *)

(* The retained samples are rows allocated once and overwritten in place:
   sample [k] lives in row [k mod capacity].  Each tracked counter's
   handle is resolved at its first sample after it exists; until then the
   series reads 0 and nothing is registered. *)
type sampler = {
  sp_registry : t;
  sp_names : string array;
  sp_counters : counter array; (* [unresolved] until the counter exists *)
  sp_ts : int array;
  sp_rows : int array array;
  mutable sp_taken : int; (* samples since creation *)
}

let unresolved = { c = 0 }

let sampler t ?(capacity = 64) names =
  let names = Array.of_list names and capacity = max 2 capacity in
  {
    sp_registry = t;
    sp_names = names;
    sp_counters = Array.make (Array.length names) unresolved;
    sp_ts = Array.make capacity 0;
    sp_rows = Array.init capacity (fun _ -> Array.make (Array.length names) 0);
    sp_taken = 0;
  }

let resolve sp i =
  let c = sp.sp_counters.(i) in
  if c != unresolved then c
  else
    match Hashtbl.find_opt sp.sp_registry.counters sp.sp_names.(i) with
    | Some c ->
        sp.sp_counters.(i) <- c;
        c
    | None -> unresolved

let sample sp =
  let k = sp.sp_taken mod Array.length sp.sp_ts in
  let row = sp.sp_rows.(k) in
  for i = 0 to Array.length row - 1 do
    row.(i) <- (resolve sp i).c
  done;
  sp.sp_ts.(k) <- now_mono_ns ();
  sp.sp_taken <- sp.sp_taken + 1

let sample_count sp = sp.sp_taken
let retained sp = min sp.sp_taken (Array.length sp.sp_ts)

(* Rates over the retained window: (newest - oldest) / elapsed.  Counters
   are monotonic, so the delta is the number of increments the window saw;
   fewer than two samples (or a zero-width window) rate as 0.  The window
   is the (oldest, newest) pair of row indices. *)
let window sp =
  if retained sp < 2 then None
  else
    let cap = Array.length sp.sp_ts in
    Some ((sp.sp_taken - retained sp) mod cap, (sp.sp_taken - 1) mod cap)

let series_index sp name =
  let rec go i =
    if i >= Array.length sp.sp_names then None
    else if String.equal sp.sp_names.(i) name then Some i
    else go (i + 1)
  in
  go 0

let rate sp name =
  match window sp with
  | None -> 0.
  | Some (oldest, newest) -> (
      let dt_ns = sp.sp_ts.(newest) - sp.sp_ts.(oldest) in
      if dt_ns <= 0 then 0.
      else
        match series_index sp name with
        | None -> 0.
        | Some i ->
            float_of_int (sp.sp_rows.(newest).(i) - sp.sp_rows.(oldest).(i))
            /. (float_of_int dt_ns /. 1e9))

let stats_json sp =
  let window_ns =
    match window sp with
    | None -> 0
    | Some (oldest, newest) -> sp.sp_ts.(newest) - sp.sp_ts.(oldest)
  in
  let series =
    List.map
      (fun name ->
        Printf.sprintf "%s:{\"value\":%d,\"rate_per_sec\":%.3f}"
          (json_string name)
          (counter_value sp.sp_registry name)
          (rate sp name))
      (Array.to_list sp.sp_names)
  in
  Printf.sprintf "{\"samples\":%d,\"window_ns\":%d,\"series\":{%s}}"
    (sample_count sp) window_ns (String.concat "," series)

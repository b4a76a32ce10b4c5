type kind = Span | Instant

type event = {
  ev_name : string;
  ev_kind : kind;
  ev_ts : int;
  ev_dur : int;
  ev_depth : int;
  ev_attrs : (string * string) list;
}

type slow_entry = {
  slow_name : string;
  slow_ts : int;
  slow_dur : int;
  slow_ancestry : string list;
  slow_attrs : (string * string) list;
}

type frame = {
  f_name : string;
  f_start : int;
  f_attrs : (string * string) list;
  f_minor : float; (* Gc.minor_words at open; 0. when no sink is installed *)
}

(* A sink sees every span as it closes — (name, open-ancestry outermost
   first, duration ns, minor words allocated inside) — independently of the
   ring, so an aggregator (Profile) stays consistent however often the ring
   wraps. *)
type sink = string -> string list -> int -> float -> unit

type t = {
  mutable on : bool;
  ring : event Ring.t;
  mutable stack : frame list; (* innermost open span first *)
  mutable epoch : int;
  mutable slow_threshold : int;
  slow : slow_entry Ring.t;
  mutable sink : sink option;
}

let create ?(capacity = 4096) ?(slow_capacity = 64) () =
  {
    on = false;
    ring = Ring.bounded capacity;
    stack = [];
    epoch = Metrics.now_mono_ns ();
    slow_threshold = 10_000_000;
    slow = Ring.bounded slow_capacity;
    sink = None;
  }

let enabled t = t.on

let clear t =
  Ring.clear t.ring;
  Ring.clear t.slow;
  t.stack <- [];
  t.epoch <- Metrics.now_mono_ns ()

let start t =
  clear t;
  t.on <- true

let stop t = t.on <- false

let set_slow_threshold_ns t ns = t.slow_threshold <- ns
let set_sink t sink = t.sink <- sink

let record_slow t name ts dur attrs =
  let ancestry = List.rev_map (fun f -> f.f_name) t.stack in
  Ring.push t.slow
    { slow_name = name; slow_ts = ts; slow_dur = dur; slow_ancestry = ancestry;
      slow_attrs = attrs }

let close_span t =
  match t.stack with
  | [] -> () (* start/clear happened inside the span; nothing to close *)
  | frame :: rest ->
      t.stack <- rest;
      let now = Metrics.now_mono_ns () in
      let dur = now - frame.f_start in
      Ring.push t.ring
        {
          ev_name = frame.f_name;
          ev_kind = Span;
          ev_ts = frame.f_start - t.epoch;
          ev_dur = dur;
          ev_depth = List.length rest;
          ev_attrs = frame.f_attrs;
        };
      if dur >= t.slow_threshold then
        record_slow t frame.f_name (frame.f_start - t.epoch) dur frame.f_attrs;
      (match t.sink with
      | None -> ()
      | Some k ->
          (* A frame opened before the sink was installed carries f_minor = 0;
             report its allocation as 0 rather than the process-lifetime
             total. *)
          let alloc =
            if frame.f_minor = 0. then 0.
            else Gc.minor_words () -. frame.f_minor
          in
          let ancestry = List.rev_map (fun f -> f.f_name) rest in
          k frame.f_name ancestry dur alloc)

let span t ?(attrs = []) name f =
  if not t.on then f ()
  else begin
    (* Gc.minor_words is a noalloc external, but reading it on every span is
       still pointless when nothing aggregates allocation — pay it only
       while a sink is armed. *)
    let minor = match t.sink with Some _ -> Gc.minor_words () | None -> 0. in
    t.stack <-
      {
        f_name = name;
        f_start = Metrics.now_mono_ns ();
        f_attrs = attrs;
        f_minor = minor;
      }
      :: t.stack;
    match f () with
    | v ->
        close_span t;
        v
    | exception e ->
        close_span t;
        raise e
  end

let instant t ?(attrs = []) name =
  if t.on then
    Ring.push t.ring
      {
        ev_name = name;
        ev_kind = Instant;
        ev_ts = Metrics.now_mono_ns () - t.epoch;
        ev_dur = 0;
        ev_depth = List.length t.stack;
        ev_attrs = attrs;
      }

let note t ?(attrs = []) name =
  if t.on then begin
    instant t ~attrs name;
    record_slow t name (Metrics.now_mono_ns () - t.epoch) 0 attrs
  end

let events t = Ring.to_list t.ring
let event_count t = Ring.length t.ring + Ring.evicted t.ring
let dropped t = Ring.evicted t.ring
let slow_log t = Ring.to_list t.slow

(* -------- export -------- *)

let attrs_json attrs =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) -> Metrics.json_string k ^ ":" ^ Metrics.json_string v)
         attrs)
  ^ "}"

(* Chrome trace-event timestamps are microseconds (floats). *)
let us ns = Printf.sprintf "%d.%03d" (ns / 1000) (abs ns mod 1000)

let chrome_event buf ev ~first =
  if not first then Buffer.add_string buf ",\n";
  (match ev.ev_kind with
  | Span ->
      Buffer.add_string buf
        (Printf.sprintf
           "  {\"name\":%s,\"cat\":\"swm\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
            \"ts\":%s,\"dur\":%s"
           (Metrics.json_string ev.ev_name) (us ev.ev_ts) (us ev.ev_dur))
  | Instant ->
      Buffer.add_string buf
        (Printf.sprintf
           "  {\"name\":%s,\"cat\":\"swm\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\
            \"tid\":1,\"ts\":%s"
           (Metrics.json_string ev.ev_name) (us ev.ev_ts)));
  if ev.ev_attrs <> [] then
    Buffer.add_string buf (",\"args\":" ^ attrs_json ev.ev_attrs);
  Buffer.add_char buf '}'

let to_chrome_json t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  let first = ref true in
  List.iter
    (fun ev ->
      chrome_event buf ev ~first:!first;
      first := false)
    (events t);
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

let slow_log_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":%s,\"ts_ns\":%d,\"dur_ns\":%d,\"ancestry\":[%s],\"args\":%s}"
           (Metrics.json_string e.slow_name) e.slow_ts e.slow_dur
           (String.concat "," (List.map Metrics.json_string e.slow_ancestry))
           (attrs_json e.slow_attrs)))
    (slow_log t);
  Buffer.add_string buf "]";
  Buffer.contents buf

(* Observability suite: the flight recorder (ring semantics, snapshots,
   crash reports), the event-loop watchdog, the time-series sampler and its
   f.query sections (health / stats / flightdump), the Prometheus and
   table metric exports, the debug log, and the satellite fixes that rode
   along (sticky absolute placement, json_string / hist_quantile edge
   cases).

   The crash-report tests parse every dump with {!Swm_xlib.Json} — the
   exporters hand-build their JSON, so "it parses" is a real check, not a
   tautology. *)

module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Prop = Swm_xlib.Prop
module Xid = Swm_xlib.Xid
module Metrics = Swm_xlib.Metrics
module Recorder = Swm_xlib.Recorder
module Fault = Swm_xlib.Fault
module Json = Swm_xlib.Json
module Wm = Swm_core.Wm
module Ctx = Swm_core.Ctx
module Vdesk = Swm_core.Vdesk
module Swmcmd = Swm_core.Swmcmd
module Templates = Swm_core.Templates
module Client_app = Swm_clients.Client_app
module Stock = Swm_clients.Stock
module Workload = Swm_clients.Workload
module Waterfall_ref = Swm_waterfall_reference.Waterfall_ref

let check = Alcotest.check

let fixture ?(extra = "") () =
  let server = Server.create () in
  let wm =
    Wm.start
      ~resources:
        [ Templates.open_look; "swm*virtualDesktop: False\nswm*rootPanels:\n" ^ extra ]
      server
  in
  (server, wm, Wm.ctx wm)

let tmp_path name = Filename.temp_file "swm-test" ("-" ^ name)

let parse_ok what text =
  match Json.parse text with
  | Ok j -> j
  | Error msg -> Alcotest.failf "%s: unparseable JSON (%s): %s" what msg text

let member_exn what key j =
  match Json.member key j with
  | Some v -> v
  | None -> Alcotest.failf "%s: missing %S" what key

(* -------- the recorder ring -------- *)

let test_ring_overwrites_oldest () =
  let r = Recorder.create ~capacity:4 () in
  (* Disabled: record is a no-op. *)
  Recorder.record r ~kind:"event" "before start";
  check Alcotest.int "nothing recorded while off" 0 (Recorder.recorded r);
  Recorder.start r;
  for i = 1 to 6 do
    Recorder.record r ~kind:"event" (Printf.sprintf "e%d" i)
  done;
  check Alcotest.int "recorded counts every entry" 6 (Recorder.recorded r);
  check Alcotest.int "dropped = recorded - capacity" 2 (Recorder.dropped r);
  check
    Alcotest.(list string)
    "ring keeps the newest, oldest first"
    [ "e3"; "e4"; "e5"; "e6" ]
    (List.map (fun (e : Recorder.entry) -> e.what) (Recorder.entries r));
  (* Timestamps are monotone within the ring. *)
  let ts = List.map (fun (e : Recorder.entry) -> e.ts_ns) (Recorder.entries r) in
  check Alcotest.bool "timestamps ascend" true (List.sort compare ts = ts);
  (* start clears: a fresh epoch starts from an empty ring. *)
  Recorder.start r;
  check Alcotest.int "start resets recorded" 0 (Recorder.recorded r);
  check Alcotest.int "start empties the ring" 0 (List.length (Recorder.entries r))

(* -------- the watchdog -------- *)

let test_watchdog_counts_stalls () =
  let server, wm, ctx = fixture () in
  let recorder = Server.recorder server in
  Recorder.start recorder;
  (* Any dispatch takes at least a nanosecond of wall time: with a 1ns
     threshold, every event is a stall. *)
  ctx.Ctx.watchdog_threshold_ns <- 1;
  let _app = Stock.xterm server () in
  ignore (Wm.step wm);
  let stalls = Metrics.counter_value (Server.metrics server) "watchdog.stalls" in
  check Alcotest.bool "stalls counted" true (stalls > 0);
  check Alcotest.bool "stalls recorded in the ring" true
    (List.exists
       (fun (e : Recorder.entry) -> e.kind = "stall")
       (Recorder.entries recorder));
  (* With a sane threshold, this workload never stalls. *)
  let server2, wm2, ctx2 = fixture () in
  ctx2.Ctx.watchdog_threshold_ns <- 10_000_000_000;
  let _app2 = Stock.xterm server2 () in
  ignore (Wm.step wm2);
  check Alcotest.int "no stalls under a 10s threshold" 0
    (Metrics.counter_value (Server.metrics server2) "watchdog.stalls")

(* -------- crash reports under chaos -------- *)

let entries_of_report report =
  match
    Json.to_list (member_exn "report" "entries" (member_exn "report" "recorder" report))
  with
  | Some l -> l
  | None -> Alcotest.fail "report: entries is not a list"

let entry_kind e =
  match Json.to_string (member_exn "entry" "kind" e) with
  | Some k -> k
  | None -> Alcotest.fail "entry: kind is not a string"

(* The PR's acceptance scenario: a chaos run with the recorder armed
   produces a parseable crash report containing at least one fault entry, a
   state snapshot consistent with the live window table, and a non-empty
   metrics registry. *)
let test_chaos_crash_report () =
  let path = tmp_path "crash.json" in
  if Sys.file_exists path then Sys.remove path;
  let server = Server.create () in
  let wm = Wm.start ~resources:[ Templates.open_look ] server in
  let ctx = Wm.ctx wm in
  let recorder = Server.recorder server in
  Recorder.start recorder;
  Recorder.arm_dump recorder ~path;
  let apps = Workload.launch_n server 8 in
  ignore (Wm.step wm);
  (* A destroy-heavy plan: absorbed BadWindows (each one a crash dump) are
     all but guaranteed. *)
  let plan =
    {
      (Fault.storm ~seed:11 ()) with
      Fault.p_destroy_window = 0.25;
      p_kill_connection = 0.;
      p_stall_connection = 0.;
      max_faults = 0;
    }
  in
  let _fault = Server.arm_faults server ~protect:[ ctx.Ctx.conn ] plan in
  let client_side f =
    try f () with Server.Bad_window _ | Server.Bad_access _ -> ()
  in
  for round = 0 to 3 do
    client_side (fun () ->
        Workload.configure_churn server ~seed:(11 + round) ~rounds:2 apps);
    client_side (fun () ->
        Workload.expose_storm server ~seed:(11 + round) ~rounds:1 apps);
    ignore (Wm.step wm)
  done;
  Server.disarm_faults server;
  check Alcotest.bool "the storm provoked crash dumps" true (Recorder.dumps recorder > 0);
  check Alcotest.bool "crash report written" true (Sys.file_exists path);
  let report =
    parse_ok "crash report"
      (In_channel.with_open_text path In_channel.input_all)
  in
  (* At least one injected fault made it into the recorded tail. *)
  check Alcotest.bool "report contains a fault entry" true
    (List.exists (fun e -> entry_kind e = "fault") (entries_of_report report));
  (* The metrics registry embedded in the report is non-empty. *)
  let counters =
    member_exn "report" "counters" (member_exn "report" "metrics" report)
  in
  (match counters with
  | Json.Obj (_ :: _) -> ()
  | _ -> Alcotest.fail "report: metrics.counters is empty");
  (* A fresh dump's snapshot agrees with the live window table, and so
     does one taken with the recorder disarmed after a client arrived. *)
  let check_fresh_dump what =
    let fresh =
      parse_ok what
        (Recorder.dump_json recorder ~reason:"test"
           ~metrics:(Server.metrics server)
           ~tracer:(Server.tracer server))
    in
    let snapshot = member_exn what "snapshot" fresh in
    let managed =
      match Json.to_int (member_exn "snapshot" "managed" snapshot) with
      | Some n -> n
      | None -> Alcotest.fail "snapshot: managed is not a number"
    in
    let live = Ctx.all_clients ctx in
    check Alcotest.int (what ^ ": snapshot client count matches the window table")
      (List.length live) managed;
    let snapshot_wins =
      match Json.to_list (member_exn "snapshot" "clients" snapshot) with
      | Some l ->
          List.filter_map
            (fun c -> Json.to_int (member_exn "client" "win" c))
            l
      | None -> Alcotest.fail "snapshot: clients is not a list"
    in
    let live_wins =
      List.sort compare
        (List.map (fun (c : Ctx.client) -> Xid.to_int c.Ctx.cwin) live)
    in
    check
      Alcotest.(list int)
      (what ^ ": snapshot window ids match the window table") live_wins
      (List.sort compare snapshot_wins)
  in
  check_fresh_dump "fresh dump";
  Recorder.stop recorder;
  let before = List.length (Ctx.all_clients ctx) in
  let _late = Stock.xterm server () in
  ignore (Wm.step wm);
  check Alcotest.int "a client arrived while disarmed" (before + 1)
    (List.length (Ctx.all_clients ctx));
  check_fresh_dump "disarmed dump";
  Sys.remove path

let test_unhandled_exception_dumps () =
  (* An exception escaping a dispatch handler must leave a crash report
     before propagating.  A snapshot source that raises on the Nth call
     would be artificial; instead, poison the confirm callback and drive an
     f.iconify(multiple), whose prompt runs inside dispatch. *)
  let path = tmp_path "unhandled.json" in
  if Sys.file_exists path then Sys.remove path;
  let server, wm, ctx = fixture () in
  let recorder = Server.recorder server in
  Recorder.start recorder;
  Recorder.arm_dump recorder ~path;
  let _app = Stock.xterm server () in
  ignore (Wm.step wm);
  ctx.Ctx.confirm <- (fun _ -> failwith "poisoned confirm");
  let sender = Server.connect server ~name:"swmcmd" in
  Swmcmd.send server sender ~screen:0 "f.iconify(multiple)";
  (match Wm.step wm with
  | _ -> Alcotest.fail "expected the poisoned dispatch to raise"
  | exception Failure _ -> ());
  check Alcotest.bool "crash report written on unhandled exception" true
    (Sys.file_exists path);
  let report =
    parse_ok "crash report"
      (In_channel.with_open_text path In_channel.input_all)
  in
  (match Json.to_string (member_exn "report" "reason" report) with
  | Some reason ->
      check Alcotest.bool "reason names the exception" true
        (String.length reason > 0)
  | None -> Alcotest.fail "report: reason is not a string");
  Sys.remove path

(* -------- Prometheus exposition -------- *)

let is_prom_name s =
  s <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_')
       s

(* Parse a sample line's label set — {key="value",...} with the exposition
   format's escapes (backslash, double quote, newline) inside values.
   Returns the (key, raw-escaped-value) pairs; fails the test on malformed
   syntax or an escape the format does not define. *)
let parse_prom_labels name_part b =
  let n = String.length name_part in
  let labels = ref [] in
  let pos = ref (b + 1) in
  let fail fmt = Alcotest.failf fmt name_part in
  let rec scan_value start acc =
    if !pos >= n then fail "unterminated label value: %s"
    else
      match name_part.[!pos] with
      | '"' ->
          Stdlib.incr pos;
          Buffer.contents acc
      | '\\' ->
          if !pos + 1 >= n then fail "dangling escape: %s"
          else begin
            (match name_part.[!pos + 1] with
            | '\\' | '"' | 'n' ->
                Buffer.add_char acc name_part.[!pos];
                Buffer.add_char acc name_part.[!pos + 1]
            | _ -> fail "undefined escape in label value: %s");
            pos := !pos + 2;
            scan_value start acc
          end
      | '\n' -> fail "raw newline in label value: %s"
      | c ->
          Buffer.add_char acc c;
          Stdlib.incr pos;
          scan_value start acc
  in
  let rec scan_pair () =
    let key_start = !pos in
    while !pos < n && name_part.[!pos] <> '=' do
      Stdlib.incr pos
    done;
    if !pos >= n then fail "label without '=': %s";
    let key = String.sub name_part key_start (!pos - key_start) in
    check Alcotest.bool ("label name well-formed: " ^ key) true (is_prom_name key);
    Stdlib.incr pos;
    if !pos >= n || name_part.[!pos] <> '"' then fail "unquoted label value: %s";
    Stdlib.incr pos;
    let value = scan_value !pos (Buffer.create 16) in
    labels := (key, value) :: !labels;
    if !pos >= n then fail "label set missing '}': %s"
    else
      match name_part.[!pos] with
      | ',' ->
          Stdlib.incr pos;
          scan_pair ()
      | '}' ->
          Stdlib.incr pos;
          if !pos <> n then fail "trailing garbage after label set: %s"
      | _ -> fail "expected ',' or '}' in label set: %s"
  in
  scan_pair ();
  List.rev !labels

(* A line-level validator for the text exposition format: every sample line
   is NAME[{key="value",...}] VALUE (label values escape backslash, quote
   and newline), every TYPE comment names a series the samples then use,
   histogram buckets are cumulative per label set and end at +Inf =
   _count. *)
let validate_prometheus text =
  let lines = String.split_on_char '\n' (String.trim text) in
  let bucket_state = Hashtbl.create 8 in
  List.iter
    (fun line ->
      if String.length line = 0 then Alcotest.fail "blank line in exposition"
      else if String.length line > 1 && line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | [ "#"; "TYPE"; name; kind ] ->
            check Alcotest.bool ("TYPE name well-formed: " ^ name) true
              (is_prom_name name);
            check Alcotest.bool ("TYPE kind known: " ^ kind) true
              (List.mem kind [ "counter"; "gauge"; "histogram" ])
        | _ -> Alcotest.failf "malformed comment line: %s" line
      end
      else begin
        match String.index_opt line ' ' with
        | None -> Alcotest.failf "sample line without value: %s" line
        | Some sp ->
            let name_part = String.sub line 0 sp in
            let value_part = String.sub line (sp + 1) (String.length line - sp - 1) in
            let bare, labels =
              match String.index_opt name_part '{' with
              | None -> (name_part, [])
              | Some b ->
                  (String.sub name_part 0 b, parse_prom_labels name_part b)
            in
            check Alcotest.bool ("sample name well-formed: " ^ bare) true
              (is_prom_name bare);
            (match float_of_string_opt value_part with
            | Some _ -> ()
            | None -> Alcotest.failf "non-numeric value: %s" line);
            (match List.assoc_opt "le" labels with
            | Some le_text ->
                (* Cumulative per series: the bucket-state key includes the
                   non-le labels, so a labeled histogram's series are
                   checked independently. *)
                let series_key =
                  bare
                  ^ String.concat ","
                      (List.filter_map
                         (fun (k, v) ->
                           if k = "le" then None else Some (k ^ "=" ^ v))
                         labels)
                in
                let v = float_of_string value_part in
                let prev =
                  match Hashtbl.find_opt bucket_state series_key with
                  | Some p -> p
                  | None -> 0.
                in
                check Alcotest.bool ("buckets cumulative: " ^ series_key) true
                  (v >= prev);
                Hashtbl.replace bucket_state series_key v;
                if le_text <> "+Inf" then
                  check Alcotest.bool ("le parses: " ^ le_text) true
                    (float_of_string_opt le_text <> None)
            | None -> ())
      end)
    lines

let test_prometheus_roundtrip () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "events.enqueued") 42;
  Metrics.incr (Metrics.counter m "weird-name.with/chars");
  Metrics.record_max (Metrics.gauge m "queue.depth") 17;
  let h = Metrics.histogram m "wm.dispatch_ns" in
  List.iter (Metrics.observe h) [ 0; 1; 2; 5; 100; 5_000; 1_000_000 ];
  let text = Metrics.to_prometheus m in
  validate_prometheus text;
  (* Spot-check the mangling and the counter suffix. *)
  check Alcotest.bool "counter gets _total" true
    (let sub = "swm_events_enqueued_total 42" in
     let rec find i =
       i + String.length sub <= String.length text
       && (String.sub text i (String.length sub) = sub || find (i + 1))
     in
     find 0);
  check Alcotest.bool "non-identifier chars mangled" true
    (let sub = "swm_weird_name_with_chars_total 1" in
     let rec find i =
       i + String.length sub <= String.length text
       && (String.sub text i (String.length sub) = sub || find (i + 1))
     in
     find 0);
  (* +Inf bucket equals _count for every histogram. *)
  let lines = String.split_on_char '\n' text in
  let inf_bucket =
    List.find_map
      (fun l ->
        let prefix = "swm_wm_dispatch_ns_bucket{le=\"+Inf\"} " in
        if String.length l > String.length prefix
           && String.sub l 0 (String.length prefix) = prefix
        then
          float_of_string_opt
            (String.sub l (String.length prefix) (String.length l - String.length prefix))
        else None)
      lines
  in
  check
    (Alcotest.option (Alcotest.float 0.))
    "+Inf bucket is the sample count" (Some 7.) inf_bucket

let test_metrics_table () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "events.enqueued") 3;
  Metrics.record_max (Metrics.gauge m "queue.depth") 9;
  Metrics.observe (Metrics.histogram m "wm.dispatch_ns") 1000;
  let table = Metrics.to_table m in
  List.iter
    (fun needle ->
      let rec find i =
        i + String.length needle <= String.length table
        && (String.sub table i (String.length needle) = needle || find (i + 1))
      in
      check Alcotest.bool ("table mentions " ^ needle) true (find 0))
    [
      "counters:"; "events.enqueued"; "queue.depth"; "wm.dispatch_ns"; "p99";
      "p999";
    ]

(* p999 (satellite): emitted by to_json and to_table, monotone above p99,
   while the Prometheus exposition stays bucket-only (validated above —
   a pXXX summary line would fail its grammar). *)
let test_p999_emitted () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  for i = 1 to 2000 do
    Metrics.observe h (if i <= 1990 then 10 else 100_000)
  done;
  let json = parse_ok "to_json" (Metrics.to_json m) in
  let hist =
    member_exn "histograms" "lat" (member_exn "json" "histograms" json)
  in
  let q name =
    match Json.to_float (member_exn "hist" name hist) with
    | Some v -> v
    | None -> Alcotest.failf "histogram %s is not a number" name
  in
  check Alcotest.bool "p999 above p99 on a heavy tail" true (q "p999" >= q "p99");
  check Alcotest.bool "p999 tracks the hist_quantile estimate" true
    (abs_float (q "p999" -. Metrics.hist_quantile h 0.999) < 1e-6)

(* -------- json_string / hist_quantile edges (satellite c) -------- *)

let test_json_string_escaping () =
  let roundtrip s =
    match Json.parse (Metrics.json_string s) with
    | Ok (Json.Str back) -> back
    | Ok _ -> Alcotest.failf "json_string %S parsed to a non-string" s
    | Error msg -> Alcotest.failf "json_string %S unparseable: %s" s msg
  in
  List.iter
    (fun s -> check Alcotest.string (Printf.sprintf "round-trips %S" s) s (roundtrip s))
    [
      "";
      "plain";
      "with \"quotes\"";
      "back\\slash";
      "new\nline";
      "tab\tand\rreturn";
      "nul\x00byte";
      "ctrl\x01\x1fchars";
      "trailing backslash \\";
      "\"";
    ];
  (* The literal itself never contains a raw control byte. *)
  let lit = Metrics.json_string "a\x00b\nc" in
  check Alcotest.bool "no raw control bytes in the literal" true
    (String.for_all (fun c -> Char.code c >= 0x20) lit)

let test_hist_quantile_edges () =
  let m = Metrics.create () in
  let empty = Metrics.histogram m "empty" in
  check (Alcotest.float 0.) "empty histogram: q=0" 0. (Metrics.hist_quantile empty 0.);
  check (Alcotest.float 0.) "empty histogram: q=1" 0. (Metrics.hist_quantile empty 1.);
  let single = Metrics.histogram m "single" in
  Metrics.observe single 5;
  (* Sample 5 lands in the log2 bucket (3, 7]; q=0 reads the bucket's lower
     edge, q=1 interpolates to the recorded max. *)
  check (Alcotest.float 0.) "single sample: q=0 is the bucket floor" 4.
    (Metrics.hist_quantile single 0.);
  check (Alcotest.float 0.) "single sample: q=1 is the max" 5.
    (Metrics.hist_quantile single 1.);
  (* Out-of-range q clamps rather than raising. *)
  check (Alcotest.float 0.) "q < 0 clamps to 0" 4. (Metrics.hist_quantile single (-3.));
  check (Alcotest.float 0.) "q > 1 clamps to 1" 5. (Metrics.hist_quantile single 7.);
  (* Monotone in q, bounded by the true max. *)
  let spread = Metrics.histogram m "spread" in
  for i = 0 to 100 do
    Metrics.observe spread i
  done;
  let q0 = Metrics.hist_quantile spread 0. in
  let q50 = Metrics.hist_quantile spread 0.5 in
  let q99 = Metrics.hist_quantile spread 0.99 in
  let q100 = Metrics.hist_quantile spread 1. in
  check Alcotest.bool "quantiles are monotone" true (q0 <= q50 && q50 <= q99 && q99 <= q100);
  check Alcotest.bool "q=1 never exceeds the max" true
    (q100 <= float_of_int (Metrics.hist_max spread))

(* [Metrics.bucket_of] finds a sample's bucket by its bit length; the
   doubling loop it replaced is the reference, at every bucket edge (the
   histograms have 32 buckets). *)
let test_bucket_of_matches_doubling () =
  let doubling v =
    let v = max 0 v in
    let rec go i bound = if v < bound || i = 31 then i else go (i + 1) (bound * 2) in
    go 0 1
  in
  let edges =
    List.concat_map (fun k -> [ (1 lsl k) - 1; 1 lsl k ]) (List.init 62 Fun.id)
  in
  List.iter
    (fun v ->
      check Alcotest.int (Printf.sprintf "bucket of %d" v) (doubling v) (Metrics.bucket_of v))
    ([ 0; -1; -2; -1000; min_int; max_int; max_int - 1 ] @ edges)

(* -------- the sampler -------- *)

let test_sampler_rates () =
  let m = Metrics.create () in
  let c = Metrics.counter m "events.enqueued" in
  let sp = Metrics.sampler m ~capacity:4 [ "events.enqueued"; "ghost.series" ] in
  check (Alcotest.float 0.) "no samples: rate 0" 0. (Metrics.rate sp "events.enqueued");
  Metrics.sample sp;
  check (Alcotest.float 0.) "one sample: rate 0" 0. (Metrics.rate sp "events.enqueued");
  Metrics.add c 1000;
  Metrics.sample sp;
  check Alcotest.bool "two samples: positive rate" true
    (Metrics.rate sp "events.enqueued" > 0.);
  check (Alcotest.float 0.) "untracked series: rate 0" 0. (Metrics.rate sp "nope");
  check (Alcotest.float 0.) "tracked but never incremented: rate 0" 0.
    (Metrics.rate sp "ghost.series");
  (* The ring retains only the last [capacity] samples. *)
  for _ = 1 to 10 do
    Metrics.sample sp
  done;
  check Alcotest.int "sample_count counts all" 12 (Metrics.sample_count sp);
  check Alcotest.int "ring retains capacity" 4 (Metrics.retained sp);
  (* stats_json parses and carries every tracked series. *)
  let stats = parse_ok "stats_json" (Metrics.stats_json sp) in
  let series = member_exn "stats" "series" stats in
  (match Json.member "events.enqueued" series with
  | Some v ->
      check
        (Alcotest.option Alcotest.int)
        "value is the live counter" (Some 1000)
        (Json.to_int (member_exn "series" "value" v))
  | None -> Alcotest.fail "stats_json: tracked series missing")

let test_stats_tick_samples_from_dispatch () =
  let _server, wm, ctx = fixture () in
  ctx.Ctx.stats_interval <- 1;
  let before = Metrics.sample_count ctx.Ctx.sampler in
  let _app = Stock.xterm _server () in
  ignore (Wm.step wm);
  check Alcotest.bool "dispatch drove the sampler" true
    (Metrics.sample_count ctx.Ctx.sampler > before)

(* -------- the f.query sections -------- *)

let reply_of server wm sender line =
  Swmcmd.send server sender ~screen:0 line;
  ignore (Wm.step wm);
  match Swmcmd.read_result server ~screen:0 with
  | Some text -> text
  | None -> Alcotest.failf "no SWM_RESULT reply to %s" line

let test_f_health () =
  let server, wm, _ctx = fixture () in
  let _app = Stock.xterm server () in
  ignore (Wm.step wm);
  let sender = Server.connect server ~name:"swmcmd" in
  Server.health_tick server;
  let health = parse_ok "f.query(health)" (reply_of server wm sender "f.query(health)") in
  check
    (Alcotest.option Alcotest.string)
    "status ok" (Some "ok")
    (Json.to_string (member_exn "health" "status" health));
  check Alcotest.bool "dispatched events counted" true
    (match Json.to_int (member_exn "health" "events_dispatched" health) with
    | Some n -> n > 0
    | None -> false);
  (match member_exn "health" "recorder" health with
  | Json.Obj _ as r ->
      check
        (Alcotest.option Alcotest.bool)
        "recorder off by default" (Some false)
        (match Json.member "enabled" r with
        | Some (Json.Bool b) -> Some b
        | _ -> None)
  | _ -> Alcotest.fail "health: recorder is not an object");
  (* The health tick's cost: open connections, the active set it visits,
     and the cumulative count of connections it examined. *)
  let conns = member_exn "health" "connections" health in
  let n key =
    match Json.to_int (member_exn "connections" key conns) with
    | Some v -> v
    | None -> Alcotest.failf "connections.%s is not an integer" key
  in
  check Alcotest.int "open: the WM, the xterm and the sender" 3 (n "open");
  check Alcotest.bool "active set within the open connections" true
    (n "active" >= 0 && n "active" <= n "open");
  check Alcotest.bool "the tick examined the connections that had events" true
    (n "tick_visits" >= 1);
  (* A stall flips the status to degraded.  The stall is counted after its
     own dispatch finishes, so provoke one first, then query. *)
  _ctx.Ctx.watchdog_threshold_ns <- 1;
  Swmcmd.send server sender ~screen:0 "f.refresh";
  ignore (Wm.step wm);
  let degraded = parse_ok "f.query(health)" (reply_of server wm sender "f.query(health)") in
  check
    (Alcotest.option Alcotest.string)
    "status degraded after a stall" (Some "degraded")
    (Json.to_string (member_exn "health" "status" degraded))

let test_f_stats () =
  let server, wm, _ctx = fixture () in
  (* A decoration build asks some resources more than once. *)
  let _xterm = Stock.xterm server ~at:(Geom.point 60 80) () in
  ignore (Wm.step wm);
  let sender = Server.connect server ~name:"swmcmd" in
  (* Two queries so the sampler has a window to derive rates over. *)
  ignore (reply_of server wm sender "f.panTo(100,100)\nf.query(stats)");
  let stats = parse_ok "f.query(stats)" (reply_of server wm sender "f.query(stats)") in
  let sampler = member_exn "stats" "sampler" stats in
  check Alcotest.bool "at least two samples" true
    (match Json.to_int (member_exn "sampler" "samples" sampler) with
    | Some n -> n >= 2
    | None -> false);
  let derived = member_exn "stats" "derived" stats in
  List.iter
    (fun key ->
      match Json.to_float (member_exn "derived" key derived) with
      | Some v -> check Alcotest.bool (key ^ " finite and non-negative") true (v >= 0.)
      | None -> Alcotest.failf "derived.%s is not a number" key)
    [ "events_per_sec"; "dispatch_per_sec"; "coalesce_ratio"; "faults_per_sec" ];
  (* The resource-DB section: the WM has queried, and the decoration's
     repeated attribute reads were answered from its class records, with
     neither a query nor a scan. *)
  let xrdb = member_exn "stats" "xrdb" stats in
  let int_of section key v =
    match Json.to_int (member_exn section key v) with
    | Some n -> n
    | None -> Alcotest.failf "%s.%s is not an integer" section key
  in
  check Alcotest.bool "xrdb entries loaded" true (int_of "xrdb" "entries" xrdb > 0);
  let records = member_exn "xrdb" "records" xrdb in
  check Alcotest.bool "attribute records held" true
    (int_of "records" "classes" records > 0);
  check Alcotest.bool "repeated reads answered from the records" true
    (int_of "records" "hits" records > 0);
  let memo = member_exn "xrdb" "memo" xrdb in
  check Alcotest.bool "memo within its capacity" true
    (int_of "memo" "size" memo <= int_of "memo" "capacity" memo);
  (* The sampled series include the dispatch counter, with a live value. *)
  let series = member_exn "sampler" "series" sampler in
  match Json.member "wm.events_dispatched" series with
  | Some v ->
      check Alcotest.bool "dispatch series has a positive value" true
        (match Json.to_int (member_exn "series" "value" v) with
        | Some n -> n > 0
        | None -> false)
  | None -> Alcotest.fail "f.query(stats): wm.events_dispatched missing"

let test_f_flightdump () =
  let path = tmp_path "flightdump.json" in
  if Sys.file_exists path then Sys.remove path;
  let server, wm, _ctx = fixture () in
  Recorder.start (Server.recorder server);
  let sender = Server.connect server ~name:"swmcmd" in
  (* Give the ring a tail (f.panTo leaves no SWM_RESULT, so no reply). *)
  Swmcmd.send server sender ~screen:0 "f.panTo(50,50)";
  ignore (Wm.step wm);
  let reply =
    parse_ok "f.query(flightdump)"
      (reply_of server wm sender (Printf.sprintf "f.query(flightdump,%s)" path))
  in
  check
    (Alcotest.option Alcotest.string)
    "reply names the file" (Some path)
    (Json.to_string (member_exn "reply" "flightdump" reply));
  let report =
    parse_ok "flight dump" (In_channel.with_open_text path In_channel.input_all)
  in
  check Alcotest.bool "dump carries recorded entries" true
    (List.length (entries_of_report report) > 0);
  (* The on-demand dump embeds a snapshot even though no crash happened. *)
  (match member_exn "dump" "snapshot" report with
  | Json.Obj _ -> ()
  | _ -> Alcotest.fail "flight dump: no snapshot");
  Sys.remove path;
  (* Argument-free invocation is an error reply, not a crash. *)
  let err = parse_ok "f.query(flightdump)" (reply_of server wm sender "f.query(flightdump)") in
  check Alcotest.bool "missing argument is reported" true
    (Json.member "error" err <> None)

let test_f_metrics_formats () =
  let server, wm, _ctx = fixture () in
  let sender = Server.connect server ~name:"swmcmd" in
  (* JSON (bare) still works and parses. *)
  let json = parse_ok "f.query(metrics)" (reply_of server wm sender "f.query(metrics)") in
  (match member_exn "metrics" "counters" json with
  | Json.Obj (_ :: _) -> ()
  | _ -> Alcotest.fail "f.query(metrics): counters empty");
  (* Prometheus passes the format validator. *)
  validate_prometheus (reply_of server wm sender "f.query(metrics,prometheus)");
  (* Table mode mentions its section headers. *)
  let table = reply_of server wm sender "f.query(metrics,table)" in
  let contains needle hay =
    let rec find i =
      i + String.length needle <= String.length hay
      && (String.sub hay i (String.length needle) = needle || find (i + 1))
    in
    find 0
  in
  check Alcotest.bool "table has a counters section" true (contains "counters:" table);
  check Alcotest.bool "bad format is an error reply" true
    (contains "error" (reply_of server wm sender "f.query(metrics,yaml)"))

(* -------- the lifecycle ledger over swmcmd -------- *)

let test_f_health_ledger () =
  let server, wm, _ctx = fixture () in
  let _app = Stock.xterm server () in
  ignore (Wm.step wm);
  let sender = Server.connect server ~name:"swmcmd" in
  let health = parse_ok "f.query(health)" (reply_of server wm sender "f.query(health)") in
  let ledger = member_exn "health" "ledger" health in
  let n key =
    match Json.to_int (member_exn "ledger" key ledger) with
    | Some v -> v
    | None -> Alcotest.failf "ledger.%s is not a number" key
  in
  check Alcotest.bool "ledger armed by default" true
    (match Json.member "armed" ledger with
    | Some (Json.Bool b) -> b
    | _ -> false);
  check Alcotest.bool "events entered the ledger" true (n "enqueued" > 0);
  check Alcotest.bool "deliveries accounted" true (n "delivered" > 0);
  check Alcotest.int "fate accounting balances in f.query(health)" 0 (n "balance")

let test_f_fate () =
  let server, wm, _ctx = fixture () in
  let _app = Stock.xterm server () in
  ignore (Wm.step wm);
  let sender = Server.connect server ~name:"swmcmd" in
  let reply = parse_ok "f.query(fate)" (reply_of server wm sender "f.query(fate)") in
  let fates =
    match Json.to_list (member_exn "fate" "fates" reply) with
    | Some l -> l
    | None -> Alcotest.fail "f.query(fate): fates is not a list"
  in
  check Alcotest.bool "fate records present" true (List.length fates > 0);
  List.iter
    (fun f ->
      ignore (member_exn "fate record" "seq" f);
      ignore (member_exn "fate record" "event" f);
      ignore (member_exn "fate record" "fate" f);
      ignore (member_exn "fate record" "conn" f);
      ignore (member_exn "fate record" "survivor" f))
    fates;
  (* Fate records come out oldest-first: seqs ascend. *)
  let seqs = List.filter_map (fun f -> Json.to_int (member_exn "f" "seq" f)) fates in
  check Alcotest.bool "records oldest-first" true (List.sort compare seqs = seqs);
  (match Json.to_int (member_exn "fate" "balance" (member_exn "fate" "ledger" reply)) with
  | Some b -> check Alcotest.int "embedded ledger balances" 0 b
  | None -> Alcotest.fail "f.query(fate): ledger.balance missing");
  (* The conn filter narrows the records; a nonsense conn yields none. *)
  let none =
    parse_ok "f.query(fate,ghost)" (reply_of server wm sender "f.query(fate,no-such-conn)")
  in
  check
    (Alcotest.option (Alcotest.list Alcotest.unit))
    "unknown conn filter matches nothing" (Some [])
    (Option.map (List.map ignore)
       (Json.to_list (member_exn "fate" "fates" none)))

let test_f_waterfall () =
  let path = tmp_path "waterfall.json" in
  if Sys.file_exists path then Sys.remove path;
  let server, wm, _ctx = fixture () in
  let _app = Stock.xterm server () in
  ignore (Wm.step wm);
  let sender = Server.connect server ~name:"swmcmd" in
  (* Some f.* activity inside a dispatch, so the fn trail has content. *)
  Swmcmd.send server sender ~screen:0 "f.panTo(100,100)";
  ignore (Wm.step wm);
  let reply =
    parse_ok "f.query(waterfall)"
      (reply_of server wm sender (Printf.sprintf "f.query(waterfall,%s)" path))
  in
  check
    (Alcotest.option Alcotest.string)
    "reply names the file" (Some path)
    (Json.to_string (member_exn "reply" "waterfall" reply));
  let wf =
    parse_ok "waterfall" (In_channel.with_open_text path In_channel.input_all)
  in
  let entries =
    match Json.to_list (member_exn "waterfall" "waterfall" wf) with
    | Some l -> l
    | None -> Alcotest.fail "waterfall: not a list"
  in
  check Alcotest.bool "dispatches retained" true (List.length entries > 0);
  check Alcotest.bool "dispatches counted" true
    (Option.value ~default:0 (Json.to_int (member_exn "waterfall" "events" wf)) > 0);
  check (Alcotest.option Alcotest.int) "exported ledger balances" (Some 0)
    (Json.to_int (member_exn "ledger" "balance" (member_exn "waterfall" "ledger" wf)));
  let int_of e key =
    match Json.to_int (member_exn "entry" key e) with
    | Some v -> v
    | None -> Alcotest.failf "waterfall entry: %s is not a number" key
  in
  List.iter
    (fun e ->
      List.iter
        (fun key -> ignore (member_exn "waterfall entry" key e))
        [ "seq"; "event"; "queue_ns"; "dispatch_ns"; "e2e_ns"; "requests"; "functions" ];
      check Alcotest.bool "seq links to an ingress record" true (int_of e "seq" > 0);
      check Alcotest.bool "dispatch_ns non-negative" true (int_of e "dispatch_ns" >= 0);
      (* A stamped event's end-to-end is its queue wait plus its dispatch. *)
      if int_of e "ingress_ns" > 0 then begin
        check Alcotest.bool "queue_ns non-negative" true (int_of e "queue_ns" >= 0);
        check Alcotest.int "e2e = queue + dispatch"
          (int_of e "queue_ns" + int_of e "dispatch_ns")
          (int_of e "e2e_ns")
      end)
    entries;
  let seqs = List.map (fun e -> int_of e "seq") entries in
  check Alcotest.(list int) "oldest first: seqs ascend"
    (List.sort_uniq compare seqs) seqs;
  (* The SWM_COMMAND dispatch links the f.* it executed. *)
  check Alcotest.bool "some dispatch carries its f.* trail" true
    (List.exists
       (fun e ->
         match Json.to_list (member_exn "entry" "functions" e) with
         | Some (_ :: _) -> true
         | _ -> false)
       entries);
  (* e2e latency landed in the per-class labeled histogram. *)
  let m = Server.metrics server in
  let e2e = Metrics.histogram_family m ~key:"event" "event.e2e_ns" in
  check Alcotest.bool "event.e2e_ns{PropertyNotify} observed" true
    (Metrics.hist_count (Metrics.labeled_histogram e2e "PropertyNotify") > 0);
  Sys.remove path;
  let err = parse_ok "f.query(waterfall)" (reply_of server wm sender "f.query(waterfall)") in
  check Alcotest.bool "missing argument is reported" true
    (Json.member "error" err <> None)

(* More dispatches than the ledger's fate window holds: the waterfall keeps
   the newest of them, oldest first, and they are the WM's delivered fates
   in that window.  Read at rest just before the query, the window can
   lose at most the fates the query's own read records to the window's
   far end. *)
let test_f_waterfall_wraps () =
  let path = tmp_path "waterfall-wrap.json" in
  let server, wm, _ctx = fixture () in
  let sender = Server.connect server ~name:"swmcmd" in
  for _ = 1 to 600 do
    Swmcmd.send server sender ~screen:0 "f.refresh";
    ignore (Wm.step wm)
  done;
  let seqs_of what key l =
    List.map
      (fun e ->
        match Json.to_int (member_exn what key e) with
        | Some s -> s
        | None -> Alcotest.failf "%s: %s is not a number" what key)
      l
  in
  let delivered =
    seqs_of "fate" "seq"
      (List.filter
         (fun r -> Json.to_string (member_exn "fate" "fate" r) = Some "delivered")
         (Option.value ~default:[]
            (Json.to_list
               (member_exn "fate" "fates"
                  (parse_ok "fate_json" (Server.fate_json server ~conn:"swm" ()))))))
  in
  ignore (reply_of server wm sender (Printf.sprintf "f.query(waterfall,%s)" path));
  let wf =
    parse_ok "waterfall" (In_channel.with_open_text path In_channel.input_all)
  in
  Sys.remove path;
  let seqs =
    seqs_of "waterfall entry" "seq"
      (Option.value ~default:[]
         (Json.to_list (member_exn "waterfall" "waterfall" wf)))
  in
  let dispatched =
    Metrics.counter_value (Server.metrics server) "wm.events_dispatched"
  in
  check Alcotest.bool "older dispatches left the window" true
    (List.length seqs < dispatched - 1);
  check (Alcotest.option Alcotest.int) "events counts the retained dispatches"
    (Some (List.length seqs))
    (Json.to_int (member_exn "waterfall" "events" wf));
  check Alcotest.(list int) "oldest first: seqs ascend"
    (List.sort_uniq compare seqs) seqs;
  let dropped = List.length delivered - List.length seqs in
  check Alcotest.bool "the newest are kept: the window's delivered fates" true
    (dropped >= 0 && dropped <= 2
    && List.filteri (fun i _ -> i >= dropped) delivered = seqs)

(* The dispatches of one batch tile it: the first starts at the batch's
   fate time, the one clock reading of its read, and each next one where
   the previous one ended.  The step reads the clock once for the batch
   and once per dispatch. *)
let test_dispatches_tile_the_batch () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server () in
  ignore (Wm.step wm);
  let frame = (Option.get (Wm.find_client wm (Client_app.window app))).Ctx.frame in
  let sender = Server.connect server ~name:"bench-sender" in
  let n = 8 in
  for i = 1 to n do
    Server.send_event server sender ~dest:frame
      (Swm_xlib.Event.Client_message
         { window = frame; name = "TILE"; data = string_of_int i })
  done;
  let reads0 = Metrics.clock_reads () in
  ignore (Wm.step wm);
  let reads = Metrics.clock_reads () - reads0 in
  let batch =
    List.filter
      (fun (d : Server.dispatch) -> d.d_code = Swm_xlib.Event.code
         (Swm_xlib.Event.Client_message { window = frame; name = ""; data = "" }))
      (Server.dispatches ctx.Ctx.conn)
  in
  check Alcotest.int "every message dispatched and kept" n (List.length batch);
  let fate_times =
    List.filter_map
      (fun r ->
        match
          ( Json.to_int (member_exn "fate" "seq" r),
            Json.to_int (member_exn "fate" "t_fate_ns" r) )
        with
        | Some seq, Some t -> Some (seq, t)
        | _ -> None)
      (Option.value ~default:[]
         (Json.to_list
            (member_exn "fate" "fates"
               (parse_ok "fate_json" (Server.fate_json server ~conn:"swm" ())))))
  in
  let first = List.hd batch in
  check (Alcotest.option Alcotest.int) "the first starts at the batch's fate time"
    (List.assoc_opt first.d_seq fate_times) (Some first.d_start_ns);
  let rec tiled = function
    | (a : Server.dispatch) :: (b :: _ as rest) ->
        a.d_end_ns = b.d_start_ns && a.d_start_ns <= a.d_end_ns && tiled rest
    | [ a ] -> a.d_start_ns <= a.d_end_ns
    | [] -> true
  in
  check Alcotest.bool "each starts where the previous one ended" true (tiled batch);
  check Alcotest.int "one read for the batch, one per dispatch" (n + 1) reads

(* f.query(waterfall) against the recording it replaced.  Twin WMs run the
   same seeded session, one stepped by [Wm.step] and one by
   {!Waterfall_ref.step}: launches, configure churn, swmcmd lines, pointer
   sweeps and client reads, with the ledger disarmed and re-armed.  For
   every dispatch both sides retain, the view and the ring agree on seq,
   event, requests and functions; every view entry's times add up; and
   every dispatch of the session's last step, armed throughout, is in the
   view. *)
type wf_op =
  | Launch of int
  | Churn of int
  | Command of int
  | Sweep of int * int
  | Read
  | Ledger of bool
  | Step

let wf_commands =
  [| "f.raise(XTerm)"; "f.lower(XClock)"; "f.iconify(XTerm)"; "f.deiconify(XTerm)";
     "f.panTo(300,200)"; "f.panTo(0,0)"; "f.refresh"; "f.raise(Emacs)" |]

let show_wf_op = function
  | Launch seed -> Printf.sprintf "launch %d" seed
  | Churn seed -> Printf.sprintf "churn %d" seed
  | Command i -> wf_commands.(i)
  | Sweep (x, y) -> Printf.sprintf "sweep %d,%d" x y
  | Read -> "read"
  | Ledger b -> Printf.sprintf "ledger %b" b
  | Step -> "step"

let wf_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (3, map (fun seed -> Launch seed) (int_range 0 1000));
        (2, map (fun seed -> Churn seed) (int_range 0 1000));
        (3, map (fun i -> Command i) (int_range 0 (Array.length wf_commands - 1)));
        (2, map2 (fun x y -> Sweep (x, y)) (int_range 0 700) (int_range 0 500));
        (2, return Read);
        (1, map (fun b -> Ledger b) bool);
        (4, return Step);
      ])

type wf_twin = {
  tw_server : Server.t;
  tw_wm : Wm.t;
  tw_sender : Server.conn;
  mutable tw_apps : Client_app.t list;
}

let wf_twin () =
  let server = Server.create () in
  let wm = Wm.start ~resources:[ Templates.open_look; "swm*rootPanels:\n" ] server in
  { tw_server = server; tw_wm = wm; tw_sender = Server.connect server ~name:"swmcmd";
    tw_apps = [] }

let wf_apply tw step = function
  | Launch seed ->
      let spec =
        List.hd (Workload.specs { Workload.default_params with count = 1; seed })
      in
      tw.tw_apps <- Client_app.launch tw.tw_server spec :: tw.tw_apps
  | Churn seed -> Workload.configure_churn tw.tw_server ~seed ~rounds:1 tw.tw_apps
  | Command i -> Swmcmd.send tw.tw_server tw.tw_sender ~screen:0 wf_commands.(i)
  | Sweep (x, y) ->
      for i = 0 to 7 do
        Server.warp_pointer tw.tw_server ~screen:0 (Geom.point (x + (i * 50)) (y + (i * 40)))
      done
  | Read -> List.iter (fun app -> ignore (Client_app.process_events app)) tw.tw_apps
  | Ledger b -> Server.set_ledger tw.tw_server b
  | Step -> ignore (step tw)

(* The ring's records of one queue entry (the rects of one Damage entry
   share a seq) folded into one, as the entry's fate slot holds them. *)
let rec fold_by_seq = function
  | (a : Waterfall_ref.waterfall_rec) :: (b :: rest) when a.wf_seq = b.wf_seq ->
      fold_by_seq
        ({ a with wf_t1 = b.wf_t1; wf_requests = a.wf_requests + b.wf_requests;
                  wf_fns = a.wf_fns @ b.wf_fns }
        :: rest)
  | a :: rest -> a :: fold_by_seq rest
  | [] -> []

let prop_waterfall_view_matches_ring =
  QCheck2.Test.make ~name:"f.query(waterfall) matches the recorded ring" ~count:60
    ~print:(fun ops -> String.concat "; " (List.map show_wf_op ops))
    QCheck2.Gen.(list_size (int_range 1 40) wf_op_gen)
    (fun ops ->
      let view = wf_twin () and spec = wf_twin () in
      let ring = Waterfall_ref.create () in
      let step_view tw = Wm.step tw.tw_wm in
      let step_spec tw = Waterfall_ref.step ring (Wm.ctx tw.tw_wm) in
      let both op =
        wf_apply view step_view op;
        wf_apply spec step_spec op
      in
      List.iter both ops;
      (* The last step: armed, with a command the WM is sure to read. *)
      List.iter both [ Ledger true; Step; Command 6 ];
      let last_before =
        List.fold_left (fun m (r : Waterfall_ref.waterfall_rec) -> max m r.wf_seq) 0
          (Waterfall_ref.records ring)
      in
      both Step;
      let path = tmp_path "waterfall-prop.json" in
      ignore (reply_of view.tw_server view.tw_wm view.tw_sender
                (Printf.sprintf "f.query(waterfall,%s)" path));
      let wf = parse_ok "waterfall" (In_channel.with_open_text path In_channel.input_all) in
      Sys.remove path;
      let entries = Option.value ~default:[] (Json.to_list (member_exn "waterfall" "waterfall" wf)) in
      let int e k = Option.get (Json.to_int (member_exn "entry" k e)) in
      let strings e k =
        List.filter_map Json.to_string
          (Option.value ~default:[] (Json.to_list (member_exn "entry" k e)))
      in
      let by_seq = List.map (fun e -> (int e "seq", e)) entries in
      let records = fold_by_seq (Waterfall_ref.records ring) in
      let times_add_up e =
        int e "dispatch_ns" >= 0
        &&
        if int e "ingress_ns" > 0 then
          int e "queue_ns" >= 0 && int e "e2e_ns" = int e "queue_ns" + int e "dispatch_ns"
        else int e "queue_ns" = -1 && int e "e2e_ns" = -1
      in
      let agrees (r : Waterfall_ref.waterfall_rec) =
        match List.assoc_opt r.wf_seq by_seq with
        | None -> r.wf_seq <= last_before
        | Some e ->
            Json.to_string (member_exn "entry" "event" e)
              = Some (Swm_xlib.Event.name_of_code r.wf_code)
            && int e "requests" = r.wf_requests
            && strings e "functions" = r.wf_fns
      in
      List.for_all times_add_up entries
      && List.exists (fun (r : Waterfall_ref.waterfall_rec) -> r.wf_seq > last_before) records
      && List.for_all agrees records)

(* The MANUAL's "why was this slow, where did this event go" walkthrough,
   end to end against a live WM: every answer is one f.query over swmcmd,
   and the waterfall's seqs are the ones the fate records name. *)
let test_query_walkthrough () =
  let server, wm, _ctx = fixture () in
  let app = Stock.xterm server () in
  ignore (Wm.step wm);
  let sender = Server.connect server ~name:"swmcmd" in
  let query q = parse_ok q (reply_of server wm sender ("f.query(" ^ q ^ ")")) in
  let ints key l =
    List.filter_map (fun e -> Json.to_int (member_exn "record" key e)) l
  in
  let list_of what key j =
    Option.value ~default:[] (Json.to_list (member_exn what key j))
  in
  ignore (query "profile,start");
  List.iter
    (fun line ->
      Swmcmd.send server sender ~screen:0 line;
      ignore (Wm.step wm))
    [ "f.iconify(XTerm)"; "f.deiconify(XTerm)"; "f.raise(XTerm)" ];
  ignore (query "profile,stop");
  let health = query "health" in
  check (Alcotest.option Alcotest.string) "1. health ok" (Some "ok")
    (Json.to_string (member_exn "health" "status" health));
  check (Alcotest.option Alcotest.int) "1. ledger balanced" (Some 0)
    (Json.to_int (member_exn "ledger" "balance" (member_exn "health" "ledger" health)));
  let win = Xid.to_int (Client_app.window app) in
  let fates = list_of "fate" "fates" (query (Printf.sprintf "fate,#%d" win)) in
  check Alcotest.bool "2. the window's events have fates" true (fates <> []);
  check Alcotest.bool "2. only that window" true
    (List.for_all (fun w -> w = win) (ints "window" fates));
  let path = tmp_path "walkthrough-waterfall.json" in
  ignore (query ("waterfall," ^ path));
  let waterfall =
    list_of "waterfall" "waterfall"
      (parse_ok "waterfall" (In_channel.with_open_text path In_channel.input_all))
  in
  Sys.remove path;
  let fate_seqs = ints "seq" (list_of "fate" "fates" (query "fate")) in
  check Alcotest.bool "3. waterfall seqs link to fate records" true
    (List.exists (fun seq -> List.mem seq fate_seqs) (ints "seq" waterfall));
  let profile = query "profile" in
  check Alcotest.bool "4. the profile tree holds the dispatches" true
    (Json.member "wm.dispatch" (member_exn "profile" "tree" profile) <> None);
  let path = tmp_path "walkthrough.collapsed" in
  let flame = query ("flame," ^ path) in
  Sys.remove path;
  check Alcotest.bool "5. flamegraph written" true
    (match Json.to_int (member_exn "flame" "frames" flame) with
    | Some n -> n > 0
    | None -> false)

(* -------- the debug log -------- *)

(* A manage, a pan, an f.raise and an unmanage, with a reporter capturing
   the "swm" source's messages at [level]. *)
let logged_session level =
  let lines = ref [] in
  let capture =
    {
      Logs.report =
        (fun src _ ~over k msgf ->
          if Logs.Src.equal src Ctx.log_src then
            msgf (fun ?header:_ ?tags:_ fmt ->
                Format.kasprintf
                  (fun line ->
                    lines := line :: !lines;
                    over ();
                    k ())
                  fmt)
          else begin
            over ();
            k ()
          end);
    }
  in
  let reporter = Logs.reporter () and was = Logs.Src.level Ctx.log_src in
  Logs.set_reporter capture;
  Logs.Src.set_level Ctx.log_src level;
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter reporter;
      Logs.Src.set_level Ctx.log_src was)
    (fun () ->
      let server = Server.create () in
      let wm = Wm.start ~resources:[ Templates.open_look ] server in
      let xterm = Stock.xterm server ~at:(Geom.point 60 80) () in
      ignore (Wm.step wm);
      let sender = Server.connect server ~name:"cmd" in
      let send line =
        Swmcmd.send server sender ~screen:0 line;
        ignore (Wm.step wm)
      in
      send "f.panTo(200,150)";
      send "f.raise(XTerm)";
      Client_app.destroy xterm;
      ignore (Wm.step wm));
  List.rev !lines

let test_debug_log () =
  check
    Alcotest.(list string)
    "at Debug"
    [
      "manage RootPanel.SwmPanel win=0x3 at=(8,8) sticky";
      "manage panner.Panner win=0x15 at=(1000,780) sticky";
      "manage xterm.XTerm win=0x20 at=(60,80)";
      "pan screen 0 to 200,150";
      "f.raise on xterm (win=0x20)";
      "unmanage xterm win=0x20 destroyed=true";
    ]
    (logged_session (Some Logs.Debug));
  check
    Alcotest.(list string)
    "at the default level" []
    (logged_session (Logs.Src.level Ctx.log_src))

(* -------- sticky absolute placement (satellite a) -------- *)

let test_sticky_usposition_is_root_absolute () =
  (* USPosition on a sticky window is absolute in glass (root) coordinates:
     panning the desktop first must not shift where it lands. *)
  let server = Server.create () in
  let wm =
    Wm.start
      ~resources:
        [
          Templates.open_look;
          "swm*rootPanels:\nswm*panner: False\nswm*desktopSize: 3456x2700\n\
           swm*Sticker*sticky: True\n";
        ]
      server
  in
  let ctx = Wm.ctx wm in
  Vdesk.pan_to ctx ~screen:0 (Geom.point 1000 1000);
  let app =
    Client_app.launch server
      (Client_app.spec ~instance:"pin" ~class_:"Sticker" ~us_position:true
         (Geom.rect 123 234 50 50))
  in
  ignore (Wm.step wm);
  let client = Option.get (Wm.find_client wm (Client_app.window app)) in
  check Alcotest.bool "client is sticky" true client.Ctx.sticky;
  let fgeom = Server.root_geometry server client.Ctx.frame in
  check Alcotest.int "sticky USPosition x ignores the pan" 123 fgeom.x;
  check Alcotest.int "sticky USPosition y ignores the pan" 234 fgeom.y

let suite =
  [
    Alcotest.test_case "recorder ring overwrites oldest" `Quick
      test_ring_overwrites_oldest;
    Alcotest.test_case "watchdog counts stalls" `Quick test_watchdog_counts_stalls;
    Alcotest.test_case "chaos storm produces a parseable crash report" `Quick
      test_chaos_crash_report;
    Alcotest.test_case "unhandled dispatch exception dumps first" `Quick
      test_unhandled_exception_dumps;
    Alcotest.test_case "prometheus exposition validates" `Quick
      test_prometheus_roundtrip;
    Alcotest.test_case "metrics table format" `Quick test_metrics_table;
    Alcotest.test_case "json_string escaping round-trips" `Quick
      test_json_string_escaping;
    Alcotest.test_case "hist_quantile edges" `Quick test_hist_quantile_edges;
    Alcotest.test_case "bucket_of matches the doubling loop" `Quick
      test_bucket_of_matches_doubling;
    Alcotest.test_case "sampler windows and rates" `Quick test_sampler_rates;
    Alcotest.test_case "dispatch drives the sampler" `Quick
      test_stats_tick_samples_from_dispatch;
    Alcotest.test_case "f.query(health)" `Quick test_f_health;
    Alcotest.test_case "f.query(stats)" `Quick test_f_stats;
    Alcotest.test_case "f.query(flightdump)" `Quick test_f_flightdump;
    Alcotest.test_case "f.query(metrics) formats" `Quick test_f_metrics_formats;
    Alcotest.test_case "p999 in json and table exports" `Quick test_p999_emitted;
    Alcotest.test_case "f.query(health) has a balanced ledger" `Quick
      test_f_health_ledger;
    Alcotest.test_case "f.query(fate) lists fates with lineage" `Quick test_f_fate;
    Alcotest.test_case "f.query(waterfall) links events to effects" `Quick
      test_f_waterfall;
    Alcotest.test_case "f.query(waterfall) keeps the newest dispatches" `Quick
      test_f_waterfall_wraps;
    Alcotest.test_case "dispatches tile their batch" `Quick
      test_dispatches_tile_the_batch;
    QCheck_alcotest.to_alcotest prop_waterfall_view_matches_ring;
    Alcotest.test_case "f.query walkthrough: slow and lost events" `Quick
      test_query_walkthrough;
    Alcotest.test_case "sticky USPosition is root-absolute" `Quick
      test_sticky_usposition_is_root_absolute;
    Alcotest.test_case "debug log lines, and none by default" `Quick test_debug_log;
  ]

(* Observability suite: the flight recorder (ring semantics, snapshots,
   crash reports), the event-loop watchdog, the time-series sampler and its
   swmcmd verbs (f.health / f.stats / f.flightdump), the Prometheus and
   table metric exports, and the satellite fixes that rode along (sticky
   absolute placement, json_string / hist_quantile edge cases).

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

let test_snapshot_interval () =
  let r = Recorder.create ~capacity:8 () in
  let calls = ref 0 in
  Recorder.set_snapshot_source r (fun () ->
      incr calls;
      Printf.sprintf "{\"n\":%d}" !calls);
  Recorder.set_snapshot_interval r 3;
  Recorder.start r;
  check Alcotest.bool "no snapshot before any record" true
    (Recorder.last_snapshot r = None);
  for i = 1 to 7 do
    Recorder.record r ~kind:"event" (Printf.sprintf "e%d" i)
  done;
  check Alcotest.int "snapshot every 3 records" 2 !calls;
  (match Recorder.last_snapshot r with
  | Some (_, json) -> check Alcotest.string "latest snapshot" "{\"n\":2}" json
  | None -> Alcotest.fail "expected a snapshot");
  (* A snapshot source that itself records must not recurse. *)
  Recorder.set_snapshot_source r (fun () ->
      Recorder.record r ~kind:"event" "from inside snapshot";
      "{}");
  Recorder.snapshot_now r;
  check Alcotest.bool "no reentrant entries" true
    (List.for_all
       (fun (e : Recorder.entry) -> e.what <> "from inside snapshot")
       (Recorder.entries r))

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
  (* A fresh dump's snapshot agrees with the live window table. *)
  let fresh =
    parse_ok "fresh dump"
      (Recorder.dump_json recorder ~reason:"test"
         ~metrics:(Server.metrics server)
         ~tracer:(Server.tracer server))
  in
  let snapshot = member_exn "fresh dump" "snapshot" fresh in
  let managed =
    match Json.to_int (member_exn "snapshot" "managed" snapshot) with
    | Some n -> n
    | None -> Alcotest.fail "snapshot: managed is not a number"
  in
  let live = Ctx.all_clients ctx in
  check Alcotest.int "snapshot client count matches the window table"
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
    "snapshot window ids match the window table" live_wins
    (List.sort compare snapshot_wins);
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

(* -------- the swmcmd verbs -------- *)

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
  let health = parse_ok "f.health" (reply_of server wm sender "f.health") in
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
  (* A stall flips the status to degraded.  The stall is counted after its
     own dispatch finishes, so provoke one first, then query. *)
  _ctx.Ctx.watchdog_threshold_ns <- 1;
  Swmcmd.send server sender ~screen:0 "f.refresh";
  ignore (Wm.step wm);
  let degraded = parse_ok "f.health" (reply_of server wm sender "f.health") in
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
  ignore (reply_of server wm sender "f.panTo(100,100)\nf.stats");
  let stats = parse_ok "f.stats" (reply_of server wm sender "f.stats") in
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
  (* The resource-DB section: the WM has queried, and the memo answered
     some of those queries without a scan. *)
  let xrdb = member_exn "stats" "xrdb" stats in
  let int_of section key v =
    match Json.to_int (member_exn section key v) with
    | Some n -> n
    | None -> Alcotest.failf "%s.%s is not an integer" section key
  in
  check Alcotest.bool "xrdb entries loaded" true (int_of "xrdb" "entries" xrdb > 0);
  check Alcotest.bool "fewer scans than queries" true
    (int_of "xrdb" "scans" xrdb < int_of "xrdb" "queries" xrdb);
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
  | None -> Alcotest.fail "f.stats: wm.events_dispatched missing"

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
    parse_ok "f.flightdump"
      (reply_of server wm sender (Printf.sprintf "f.flightdump(%s)" path))
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
  let err = parse_ok "f.flightdump()" (reply_of server wm sender "f.flightdump") in
  check Alcotest.bool "missing argument is reported" true
    (Json.member "error" err <> None)

let test_f_metrics_formats () =
  let server, wm, _ctx = fixture () in
  let sender = Server.connect server ~name:"swmcmd" in
  (* JSON (bare) still works and parses. *)
  let json = parse_ok "f.metrics" (reply_of server wm sender "f.metrics") in
  (match member_exn "metrics" "counters" json with
  | Json.Obj (_ :: _) -> ()
  | _ -> Alcotest.fail "f.metrics: counters empty");
  (* Prometheus passes the format validator. *)
  validate_prometheus (reply_of server wm sender "f.metrics(prometheus)");
  (* Table mode mentions its section headers. *)
  let table = reply_of server wm sender "f.metrics(table)" in
  let contains needle hay =
    let rec find i =
      i + String.length needle <= String.length hay
      && (String.sub hay i (String.length needle) = needle || find (i + 1))
    in
    find 0
  in
  check Alcotest.bool "table has a counters section" true (contains "counters:" table);
  check Alcotest.bool "bad format is an error reply" true
    (contains "error" (reply_of server wm sender "f.metrics(yaml)"))

(* -------- the lifecycle ledger over swmcmd -------- *)

let test_f_health_ledger () =
  let server, wm, _ctx = fixture () in
  let _app = Stock.xterm server () in
  ignore (Wm.step wm);
  let sender = Server.connect server ~name:"swmcmd" in
  let health = parse_ok "f.health" (reply_of server wm sender "f.health") in
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
  check Alcotest.int "fate accounting balances in f.health" 0 (n "balance")

let test_f_fate () =
  let server, wm, _ctx = fixture () in
  let _app = Stock.xterm server () in
  ignore (Wm.step wm);
  let sender = Server.connect server ~name:"swmcmd" in
  let reply = parse_ok "f.fate" (reply_of server wm sender "f.fate") in
  let fates =
    match Json.to_list (member_exn "fate" "fates" reply) with
    | Some l -> l
    | None -> Alcotest.fail "f.fate: fates is not a list"
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
  | None -> Alcotest.fail "f.fate: ledger.balance missing");
  (* The conn filter narrows the records; a nonsense conn yields none. *)
  let none =
    parse_ok "f.fate(ghost)" (reply_of server wm sender "f.fate(no-such-conn)")
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
    parse_ok "f.waterfall"
      (reply_of server wm sender (Printf.sprintf "f.waterfall(%s)" path))
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
  let int_of e key =
    match Json.to_int (member_exn "entry" key e) with
    | Some v -> v
    | None -> Alcotest.failf "waterfall entry: %s is not a number" key
  in
  List.iter
    (fun e ->
      check Alcotest.bool "seq links to an ingress record" true (int_of e "seq" > 0);
      check Alcotest.bool "dispatch_ns non-negative" true (int_of e "dispatch_ns" >= 0);
      (* A stamped event's end-to-end spans its queue wait and dispatch. *)
      if int_of e "ingress_ns" > 0 then
        check Alcotest.bool "e2e >= queue + dispatch parts" true
          (int_of e "e2e_ns" >= int_of e "dispatch_ns"
          && int_of e "e2e_ns" >= int_of e "queue_ns"))
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
  let err = parse_ok "f.waterfall()" (reply_of server wm sender "f.waterfall") in
  check Alcotest.bool "missing argument is reported" true
    (Json.member "error" err <> None)

(* More dispatches than the 64-slot waterfall ring: f.waterfall writes
   exactly the newest 64, oldest first. *)
let test_f_waterfall_wraps () =
  let path = tmp_path "waterfall-wrap.json" in
  let server, wm, _ctx = fixture () in
  let sender = Server.connect server ~name:"swmcmd" in
  for _ = 1 to 80 do
    Swmcmd.send server sender ~screen:0 "f.refresh";
    ignore (Wm.step wm)
  done;
  ignore (reply_of server wm sender (Printf.sprintf "f.waterfall(%s)" path));
  let wf =
    parse_ok "waterfall" (In_channel.with_open_text path In_channel.input_all)
  in
  Sys.remove path;
  let seqs =
    List.map
      (fun e ->
        match Json.to_int (member_exn "entry" "seq" e) with
        | Some s -> s
        | None -> Alcotest.fail "waterfall entry: seq is not a number")
      (Option.value ~default:[]
         (Json.to_list (member_exn "waterfall" "waterfall" wf)))
  in
  check Alcotest.int "exactly the ring's capacity" Ctx.waterfall_capacity
    (List.length seqs);
  check (Alcotest.option Alcotest.int) "events counts the retained dispatches"
    (Some Ctx.waterfall_capacity)
    (Json.to_int (member_exn "waterfall" "events" wf));
  check Alcotest.(list int) "oldest first: seqs ascend"
    (List.sort_uniq compare seqs) seqs

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
    Alcotest.test_case "snapshots every interval, no reentrancy" `Quick
      test_snapshot_interval;
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
    Alcotest.test_case "sampler windows and rates" `Quick test_sampler_rates;
    Alcotest.test_case "dispatch drives the sampler" `Quick
      test_stats_tick_samples_from_dispatch;
    Alcotest.test_case "f.health" `Quick test_f_health;
    Alcotest.test_case "f.stats" `Quick test_f_stats;
    Alcotest.test_case "f.flightdump" `Quick test_f_flightdump;
    Alcotest.test_case "f.metrics formats" `Quick test_f_metrics_formats;
    Alcotest.test_case "p999 in json and table exports" `Quick test_p999_emitted;
    Alcotest.test_case "f.health embeds a balanced ledger" `Quick
      test_f_health_ledger;
    Alcotest.test_case "f.fate lists fates with lineage" `Quick test_f_fate;
    Alcotest.test_case "f.waterfall links events to effects" `Quick
      test_f_waterfall;
    Alcotest.test_case "f.waterfall keeps the newest 64" `Quick
      test_f_waterfall_wraps;
    Alcotest.test_case "sticky USPosition is root-absolute" `Quick
      test_sticky_usposition_is_root_absolute;
  ]

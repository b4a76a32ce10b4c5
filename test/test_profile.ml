(* Profiling suite: bounded-cardinality labeled metrics (cap, "other"
   overflow bucket, label_overflow accounting, Prometheus label escaping),
   the span-sink call-tree aggregation (including consistency across
   Tracing ring overwrite — the sink fires at span close, so the tree never
   depends on what the ring still holds), GC/allocation telemetry, the
   collapsed-stack flamegraph export, and the profile / flame sections of f.query
   end to end.

   The Prometheus output here is pushed through the same format validator
   the observability suite uses, so labeled series and escaped values are
   checked against the grammar, not just eyeballed. *)

module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Metrics = Swm_xlib.Metrics
module Tracing = Swm_xlib.Tracing
module Profile = Swm_xlib.Profile
module Json = Swm_xlib.Json
module Wm = Swm_core.Wm
module Ctx = Swm_core.Ctx
module Swmcmd = Swm_core.Swmcmd
module Templates = Swm_core.Templates
module Stock = Swm_clients.Stock

let check = Alcotest.check
let contains = Astring_contains.contains

(* -------- labeled families: basics, cap, overflow -------- *)

let test_labeled_basics () =
  let m = Metrics.create () in
  let fam = Metrics.counter_family m ~key:"conn" "events.by_conn" in
  check Alcotest.string "family key" "conn" (Metrics.counter_family_key fam);
  let a = Metrics.labeled_counter fam "xterm" in
  let b = Metrics.labeled_counter fam "xclock" in
  Metrics.incr a;
  Metrics.incr a;
  Metrics.incr b;
  check Alcotest.int "xterm series" 2
    (Metrics.labeled_counter_value m "events.by_conn" "xterm");
  check Alcotest.int "xclock series" 1
    (Metrics.labeled_counter_value m "events.by_conn" "xclock");
  check Alcotest.int "missing label reads 0" 0
    (Metrics.labeled_counter_value m "events.by_conn" "nope");
  check Alcotest.int "missing family reads 0" 0
    (Metrics.labeled_counter_value m "nope" "xterm");
  check (Alcotest.list Alcotest.string) "labels sorted"
    [ "xclock"; "xterm" ]
    (Metrics.counter_family_labels fam);
  (* Same name returns the same family; the handle stays valid. *)
  let fam2 = Metrics.counter_family m ~key:"ignored" "events.by_conn" in
  Metrics.incr (Metrics.labeled_counter fam2 "xterm");
  check Alcotest.int "find-or-create shares series" 3
    (Metrics.labeled_counter_value m "events.by_conn" "xterm");
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "family_top orders by value then label"
    [ ("xterm", 3); ("xclock", 1) ]
    (Metrics.family_top fam 2);
  let top = Metrics.top_json m () in
  check Alcotest.bool "top_json mentions the family" true
    (contains top "events.by_conn");
  (match Json.parse top with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "top_json does not parse: %s" msg);
  match Json.parse (Metrics.to_json m) with
  | Ok json ->
      check Alcotest.bool "to_json has a labeled section" true
        (Json.member "labeled" json <> None)
  | Error msg -> Alcotest.failf "to_json does not parse: %s" msg

let test_cardinality_cap () =
  let m = Metrics.create () in
  let fam = Metrics.counter_family m ~max_series:32 ~key:"fn" "calls" in
  for i = 1 to 40 do
    Metrics.incr (Metrics.labeled_counter fam (Printf.sprintf "fn%02d" i))
  done;
  (* 32 real series; the 8 over-cap lookups all land in "other". *)
  let labels = Metrics.counter_family_labels fam in
  check Alcotest.int "series capped at max + other" 33 (List.length labels);
  check Alcotest.bool "other bucket present" true (List.mem "other" labels);
  check Alcotest.int "other absorbs the overflow" 8
    (Metrics.labeled_counter_value m "calls" "other");
  check Alcotest.int "each rejected lookup is counted" 8
    (Metrics.counter_value m "metrics.label_overflow");
  check Alcotest.int "early label kept its own series" 1
    (Metrics.labeled_counter_value m "calls" "fn01");
  (* A cached handle for an existing series still works at capacity, and
     re-looking-up an existing label is not an overflow. *)
  Metrics.incr (Metrics.labeled_counter fam "fn01");
  check Alcotest.int "existing label still routable" 2
    (Metrics.labeled_counter_value m "calls" "fn01");
  check Alcotest.int "no spurious overflow" 8
    (Metrics.counter_value m "metrics.label_overflow");
  (* reset keeps registrations but zeroes every series. *)
  Metrics.reset m;
  check Alcotest.int "reset zeroes labeled series" 0
    (Metrics.labeled_counter_value m "calls" "fn01")

(* -------- Prometheus: labeled series and label-value escaping -------- *)

let test_prometheus_labels () =
  let m = Metrics.create () in
  let fam = Metrics.counter_family m ~key:"conn" "events.by_conn" in
  (* A label value exercising every escape the format defines: backslash,
     double quote, newline. *)
  let nasty = "a\\b\"c\nd" in
  Metrics.incr (Metrics.labeled_counter fam nasty);
  Metrics.incr (Metrics.labeled_counter fam "plain");
  let hfam = Metrics.histogram_family m ~key:"conn" "lat.by_conn" in
  Metrics.observe (Metrics.labeled_histogram hfam "plain") 5;
  let text = Metrics.to_prometheus m in
  check Alcotest.bool "backslash+quote+newline escaped" true
    (contains text "conn=\"a\\\\b\\\"c\\nd\"");
  check Alcotest.bool "no raw newline leaks into a sample" false
    (contains text "c\nd\"");
  check Alcotest.bool "labeled histogram emits buckets" true
    (contains text "swm_lat_by_conn_bucket{conn=\"plain\",le=");
  (* The observability suite's grammar validator must accept the labeled
     output — including the escaped value. *)
  Test_observability.validate_prometheus text

(* -------- span-tree aggregation -------- *)

let standalone () =
  let m = Metrics.create () in
  let tr = Tracing.create ~capacity:64 () in
  (m, tr, Profile.create ~metrics:m ~tracer:tr ())

let test_span_tree () =
  let _, tr, p = standalone () in
  Profile.start p;
  for _ = 1 to 3 do
    Tracing.span tr "dispatch" (fun () ->
        Tracing.span tr "decode" (fun () -> ());
        Tracing.span tr "decode" (fun () -> ());
        Tracing.span tr "redraw" (fun () -> ()))
  done;
  Tracing.span tr "idle" (fun () -> ());
  Profile.stop p;
  match Profile.roots p with
  | [ dispatch; idle ] ->
      check Alcotest.string "roots name-sorted" "dispatch" dispatch.Profile.name;
      check Alcotest.string "second root" "idle" idle.Profile.name;
      check Alcotest.int "root count aggregates" 3 dispatch.Profile.count;
      (match dispatch.Profile.children with
      | [ decode; redraw ] ->
          check Alcotest.string "child 1" "decode" decode.Profile.name;
          check Alcotest.int "sibling spans merge" 6 decode.Profile.count;
          check Alcotest.string "child 2" "redraw" redraw.Profile.name;
          check Alcotest.int "redraw count" 3 redraw.Profile.count;
          check Alcotest.bool "parent total covers children" true
            (dispatch.Profile.total_ns
            >= decode.Profile.total_ns + redraw.Profile.total_ns)
      | kids ->
          Alcotest.failf "expected 2 children, got %d" (List.length kids));
      check Alcotest.bool "self = total - children" true
        (dispatch.Profile.self_ns <= dispatch.Profile.total_ns)
  | roots -> Alcotest.failf "expected 2 roots, got %d" (List.length roots)

let standalone_small () =
  let m = Metrics.create () in
  let tr = Tracing.create ~capacity:4 () in
  (m, tr, Profile.create ~metrics:m ~tracer:tr ())

let test_ring_overwrite_consistency () =
  (* A 4-slot ring under 500 spans: the Chrome export can only see the
     tail, but the profile tree is fed by the sink at close time, so it
     still accounts for every span. *)
  let _, tr, p = standalone_small () in
  Profile.start p;
  for _ = 1 to 500 do
    Tracing.span tr "outer" (fun () -> Tracing.span tr "inner" (fun () -> ()))
  done;
  Profile.stop p;
  check Alcotest.bool "ring actually overwrote" true (Tracing.dropped tr > 0);
  (match Profile.roots p with
  | [ outer ] ->
      check Alcotest.int "tree counts all 500 outer spans" 500
        outer.Profile.count;
      (match outer.Profile.children with
      | [ inner ] ->
          check Alcotest.int "and all 500 inner spans" 500 inner.Profile.count
      | _ -> Alcotest.fail "expected one child")
  | _ -> Alcotest.fail "expected one root");
  check Alcotest.bool "totals survive overwrite" true
    (Profile.root_total_ns p > 0)

let test_alloc_attribution () =
  let _, tr, p = standalone () in
  Profile.start p;
  let sink = ref [] in
  Tracing.span tr "alloc-heavy" (fun () ->
      for i = 0 to 999 do
        sink := (i, i) :: !sink
      done);
  Tracing.span tr "alloc-light" (fun () -> ());
  Profile.stop p;
  ignore (Sys.opaque_identity !sink);
  let by_name name =
    match List.find_opt (fun f -> f.Profile.name = name) (Profile.roots p) with
    | Some f -> f
    | None -> Alcotest.failf "no %s frame" name
  in
  let heavy = by_name "alloc-heavy" and light = by_name "alloc-light" in
  (* 1000 three-word cons cells plus tuples: thousands of minor words. *)
  check Alcotest.bool "allocation attributed to the allocating span" true
    (heavy.Profile.alloc_words > 1000.);
  check Alcotest.bool "empty span allocates (almost) nothing" true
    (light.Profile.alloc_words < heavy.Profile.alloc_words /. 10.)

let test_collapsed_export () =
  let _, tr, p = standalone () in
  Profile.start p;
  Tracing.span tr "wm dispatch" (fun () ->
      Tracing.span tr "pan;to" (fun () -> ()));
  Profile.stop p;
  let text = Profile.to_collapsed p in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
  in
  check Alcotest.bool "collapsed export non-empty" true (lines <> []);
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "no value separator: %s" line
      | Some sp ->
          let stack = String.sub line 0 sp in
          let value =
            String.sub line (sp + 1) (String.length line - sp - 1)
          in
          check Alcotest.bool ("positive self value: " ^ line) true
            (match int_of_string_opt value with
            | Some v -> v > 0
            | None -> false);
          (* Frame separators stay unambiguous: the only ';' are the ones
             the format inserts, and stacks carry no spaces. *)
          String.iter (fun c -> assert (c <> ' ')) stack)
    lines;
  check Alcotest.bool "space in span name mapped" true
    (contains text "wm_dispatch");
  check Alcotest.bool "semicolon in span name mapped" true
    (contains text "wm_dispatch;pan_to")

let test_disarmed_is_inert () =
  let m, tr, p = standalone () in
  (* Never started: sections run their thunks, nothing is recorded. *)
  let r = Profile.event_section p (fun () -> 42) in
  check Alcotest.int "event_section passes the result through" 42 r;
  Tracing.start tr;
  Tracing.span tr "spanned-without-profiler" (fun () -> ());
  check Alcotest.int "no events counted" 0 (Profile.events p);
  check (Alcotest.list Alcotest.string) "no tree" []
    (List.map (fun f -> f.Profile.name) (Profile.roots p));
  check Alcotest.string "collapsed export empty" "" (Profile.to_collapsed p);
  check Alcotest.int "no GC samples" 0
    (Metrics.hist_count (Metrics.histogram m "gc.minor_words_per_event"));
  (* Arm/disarm round-trip restores the tracer to its pre-profile state. *)
  Tracing.stop tr;
  Profile.start p;
  check Alcotest.bool "start arms" true (Profile.armed p);
  check Alcotest.bool "start arms the tracer" true (Tracing.enabled tr);
  Profile.stop p;
  check Alcotest.bool "stop restores tracer state" false (Tracing.enabled tr)

(* -------- GC telemetry through the event section -------- *)

let test_gc_telemetry () =
  let m, _, p = standalone () in
  Profile.start p;
  let sink = ref [] in
  for _ = 1 to 10 do
    Profile.event_section p (fun () ->
        for i = 0 to 499 do
          sink := i :: !sink
        done)
  done;
  Profile.stop p;
  ignore (Sys.opaque_identity !sink);
  check Alcotest.int "one GC sample per event" 10
    (Metrics.hist_count (Metrics.histogram m "gc.minor_words_per_event"));
  check Alcotest.bool "minor words measured" true
    (Metrics.hist_sum (Metrics.histogram m "gc.minor_words_per_event") > 0);
  check Alcotest.int "events counted" 10 (Profile.events p);
  check Alcotest.bool "dispatch wall accumulated" true
    (Profile.dispatch_wall_ns p > 0)

(* -------- f.query(profile) / f.query(flame) end to end -------- *)

let fixture () =
  let server = Server.create () in
  let wm = Wm.start ~resources:[ Templates.open_look ] server in
  let _xterm = Stock.xterm server ~at:(Geom.point 60 80) () in
  let _xclock = Stock.xclock server ~at:(Geom.point 600 60) () in
  ignore (Wm.step wm);
  (server, wm)

let roundtrip server wm sender line =
  Swmcmd.send server sender ~screen:0 line;
  ignore (Wm.step wm);
  match Swmcmd.read_result server ~screen:0 with
  | Some text -> text
  | None -> Alcotest.failf "no SWM_RESULT reply to %s" line

let drive_storm server wm sender =
  for i = 1 to 10 do
    ignore
      (roundtrip server wm sender
         (Printf.sprintf "f.panTo(%d,%d)" (i * 120) (i * 80)))
  done;
  for _ = 1 to 3 do
    ignore (roundtrip server wm sender "f.iconify(XTerm)");
    ignore (roundtrip server wm sender "f.deiconify(XTerm)")
  done

let test_f_profile_verbs () =
  let server, wm = fixture () in
  let sender = Server.connect server ~name:"cmd" in
  let started = roundtrip server wm sender "f.query(profile,start)" in
  check Alcotest.bool "start acknowledges" true (contains started "started");
  drive_storm server wm sender;
  ignore (roundtrip server wm sender "f.query(profile,stop)");
  let dump = roundtrip server wm sender "f.query(profile)" in
  match Json.parse dump with
  | Error msg -> Alcotest.failf "f.query(profile) does not parse: %s" msg
  | Ok json ->
      let int_field name =
        match Option.bind (Json.member name json) Json.to_int with
        | Some v -> v
        | None -> Alcotest.failf "dump missing %s" name
      in
      check Alcotest.bool "events profiled" true (int_field "events" > 0);
      check Alcotest.bool "dispatch wall measured" true
        (int_field "dispatch_wall_ns" > 0);
      (* The nesting rule: every probe runs inside a wm.dispatch span, so
         the tree's root frames hold at least the dispatch wall time the
         probe measured. *)
      let root_total = int_field "root_total_ns"
      and dispatch_wall = int_field "dispatch_wall_ns" in
      check Alcotest.bool
        (Printf.sprintf "root_total_ns %d >= dispatch_wall_ns %d" root_total
           dispatch_wall)
        true
        (root_total >= dispatch_wall);
      check Alcotest.bool "tree has a dispatch root" true
        (contains dump "wm.dispatch");
      (* Attribution rode along: the always-on families saw the storm. *)
      let m = Server.metrics server in
      check Alcotest.bool "per-conn delivery attributed" true
        (Metrics.labeled_counter_value m "events.delivered.by_conn" "swm" > 0);
      check Alcotest.bool "per-function calls attributed" true
        (Metrics.labeled_counter_value m "functions.calls" "f.panto" > 0);
      check Alcotest.bool "per-event-kind dispatch attributed" true
        (Metrics.labeled_counter_value m "wm.dispatch.events" "PropertyNotify"
        > 0);
      let stats = roundtrip server wm sender "f.query(stats)" in
      (match Json.parse stats with
      | Ok sjson ->
          check Alcotest.bool "f.query(stats) carries the top section" true
            (Json.member "top" sjson <> None)
      | Error msg -> Alcotest.failf "f.query(stats) does not parse: %s" msg)

let test_f_flame () =
  let server, wm = fixture () in
  let sender = Server.connect server ~name:"cmd" in
  ignore (roundtrip server wm sender "f.query(profile,start)");
  drive_storm server wm sender;
  ignore (roundtrip server wm sender "f.query(profile,stop)");
  let path = Filename.temp_file "swm-test" "-flame.txt" in
  let reply = roundtrip server wm sender (Printf.sprintf "f.query(flame,%s)" path) in
  (match Json.parse reply with
  | Error msg -> Alcotest.failf "f.query(flame) reply does not parse: %s" msg
  | Ok json ->
      check Alcotest.bool "reply names the file" true (contains reply path);
      let frames =
        match Option.bind (Json.member "frames" json) Json.to_int with
        | Some v -> v
        | None -> Alcotest.fail "reply missing frames"
      in
      check Alcotest.bool "non-empty flamegraph" true (frames > 0);
      let content = In_channel.with_open_text path In_channel.input_all in
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' content)
      in
      check Alcotest.int "reply frame count matches the file" frames
        (List.length lines);
      check Alcotest.bool "stacks rooted in the dispatch frames" true
        (List.exists (fun l -> contains l "wm.dispatch") lines));
  Sys.remove path;
  (* Bad argument paths stay inside the reply channel. *)
  let err = roundtrip server wm sender "f.query(flame)" in
  check Alcotest.bool "missing path is an in-band error" true
    (contains err "error")

let suite =
  [
    Alcotest.test_case "labeled counter families" `Quick test_labeled_basics;
    Alcotest.test_case "cardinality cap and other bucket" `Quick
      test_cardinality_cap;
    Alcotest.test_case "prometheus labels and escaping" `Quick
      test_prometheus_labels;
    Alcotest.test_case "span-tree aggregation" `Quick test_span_tree;
    Alcotest.test_case "tree consistent across ring overwrite" `Quick
      test_ring_overwrite_consistency;
    Alcotest.test_case "allocation attribution per frame" `Quick
      test_alloc_attribution;
    Alcotest.test_case "collapsed-stack export" `Quick test_collapsed_export;
    Alcotest.test_case "disarmed profiler is inert" `Quick
      test_disarmed_is_inert;
    Alcotest.test_case "gc telemetry per event" `Quick test_gc_telemetry;
    Alcotest.test_case "f.profile verbs end to end" `Quick
      test_f_profile_verbs;
    Alcotest.test_case "f.flame writes a flamegraph" `Quick test_f_flame;
  ]

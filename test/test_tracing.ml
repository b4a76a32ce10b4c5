(* The span tracer: nesting, exception safety, ring overwrite, the slow-op
   log, the Chrome trace-event exporter, and the one property that matters
   most — arming an observer (the tracer, the profiler, the recorder) or
   disarming the ledger must not change what the window manager does. *)

module Tracing = Swm_xlib.Tracing
module Metrics = Swm_xlib.Metrics
module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Wm = Swm_core.Wm
module Swmcmd = Swm_core.Swmcmd
module Templates = Swm_core.Templates
module Stock = Swm_clients.Stock

let check = Alcotest.check

(* -------- a minimal JSON validator --------

   yojson is not a dependency, so exports are validated with a small
   recursive-descent parser: it accepts exactly the JSON grammar and fails
   loudly on anything else (unbalanced brackets, bad escapes, trailing
   text). *)

exception Bad_json of string

let validate_json (s : string) =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at byte %d" msg !pos)) in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let is_num c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> lit "true"
    | Some 'f' -> lit "false"
    | Some 'n' -> lit "null"
    | Some _ | None -> fail "expected a value"
  and lit w = String.iter (fun c -> if peek () = Some c then advance () else fail w) w
  and number () =
    while (match peek () with Some c -> is_num c | None -> false) do
      advance ()
    done
  and string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with None -> fail "bad escape" | Some _ -> advance ());
          go ()
      | Some _ ->
          advance ();
          go ()
    in
    go ()
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then advance ()
    else
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            members ()
        | Some '}' -> advance ()
        | _ -> fail "expected ',' or '}'"
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then advance ()
    else
      let rec elems () =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            elems ()
        | Some ']' -> advance ()
        | _ -> fail "expected ',' or ']'"
      in
      elems ()
  in
  value ();
  skip_ws ();
  if !pos <> n then fail "trailing text"

(* -------- recording -------- *)

let test_disabled_records_nothing () =
  let t = Tracing.create () in
  let r = Tracing.span t "a" (fun () -> 41 + 1) in
  Tracing.instant t "i";
  check Alcotest.int "thunk result passes through" 42 r;
  check Alcotest.int "no events" 0 (List.length (Tracing.events t));
  check Alcotest.int "no count" 0 (Tracing.event_count t)

let test_spans_nest () =
  let t = Tracing.create () in
  Tracing.start t;
  Tracing.span t "outer" (fun () ->
      Tracing.span t "inner" (fun () -> ());
      Tracing.instant t "mark");
  Tracing.stop t;
  match Tracing.events t with
  | [ inner; mark; outer ] ->
      check Alcotest.string "inner name" "inner" inner.Tracing.ev_name;
      check Alcotest.string "outer name" "outer" outer.Tracing.ev_name;
      check Alcotest.int "inner depth" 1 inner.Tracing.ev_depth;
      check Alcotest.int "mark depth" 1 mark.Tracing.ev_depth;
      check Alcotest.int "outer depth" 0 outer.Tracing.ev_depth;
      check Alcotest.bool "inner starts inside outer" true
        (inner.Tracing.ev_ts >= outer.Tracing.ev_ts);
      check Alcotest.bool "inner ends inside outer" true
        (inner.Tracing.ev_ts + inner.Tracing.ev_dur
        <= outer.Tracing.ev_ts + outer.Tracing.ev_dur)
  | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs)

let test_span_closes_on_exception () =
  let t = Tracing.create () in
  Tracing.start t;
  (try
     Tracing.span t "outer" (fun () ->
         Tracing.span t "boom" (fun () -> failwith "kaboom"))
   with Failure _ -> ());
  (* Both spans must have closed despite the exception... *)
  check Alcotest.int "both spans recorded" 2 (List.length (Tracing.events t));
  (* ...and the stack must be balanced: a new toplevel span lands at depth 0. *)
  Tracing.span t "after" (fun () -> ());
  let after = List.nth (Tracing.events t) 2 in
  check Alcotest.int "stack rebalanced" 0 after.Tracing.ev_depth

let test_ring_overwrite_keeps_newest () =
  let t = Tracing.create ~capacity:8 () in
  Tracing.start t;
  for i = 0 to 19 do
    Tracing.instant t (Printf.sprintf "i%d" i)
  done;
  let names = List.map (fun e -> e.Tracing.ev_name) (Tracing.events t) in
  check (Alcotest.list Alcotest.string) "newest 8 survive, oldest first"
    [ "i12"; "i13"; "i14"; "i15"; "i16"; "i17"; "i18"; "i19" ]
    names;
  check Alcotest.int "total count" 20 (Tracing.event_count t);
  check Alcotest.int "dropped" 12 (Tracing.dropped t)

let test_start_clears_stop_keeps () =
  let t = Tracing.create () in
  Tracing.start t;
  Tracing.instant t "one";
  Tracing.stop t;
  check Alcotest.int "kept after stop" 1 (List.length (Tracing.events t));
  Tracing.instant t "ignored";
  check Alcotest.int "nothing recorded while stopped" 1
    (List.length (Tracing.events t));
  Tracing.start t;
  check Alcotest.int "start clears" 0 (List.length (Tracing.events t))

(* -------- slow-op log -------- *)

let test_slow_log_ancestry () =
  let t = Tracing.create () in
  Tracing.set_slow_threshold_ns t 0;
  (* every span qualifies *)
  Tracing.start t;
  Tracing.span t "grand" (fun () ->
      Tracing.span t "parent" (fun () ->
          Tracing.span t "leaf" ~attrs:[ ("k", "v") ] (fun () -> ())));
  match Tracing.slow_log t with
  | [ leaf; parent; grand ] ->
      check Alcotest.string "innermost first closed" "leaf" leaf.Tracing.slow_name;
      check (Alcotest.list Alcotest.string) "leaf ancestry outermost first"
        [ "grand"; "parent" ] leaf.Tracing.slow_ancestry;
      check (Alcotest.list Alcotest.string) "parent ancestry" [ "grand" ]
        parent.Tracing.slow_ancestry;
      check (Alcotest.list Alcotest.string) "grand ancestry" []
        grand.Tracing.slow_ancestry;
      check
        (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
        "attrs kept"
        [ ("k", "v") ]
        leaf.Tracing.slow_attrs
  | l -> Alcotest.failf "expected 3 slow entries, got %d" (List.length l)

let test_slow_log_capped () =
  let t = Tracing.create ~slow_capacity:4 () in
  Tracing.set_slow_threshold_ns t 0;
  Tracing.start t;
  for i = 0 to 9 do
    Tracing.span t (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  let names = List.map (fun e -> e.Tracing.slow_name) (Tracing.slow_log t) in
  check (Alcotest.list Alcotest.string) "newest 4, oldest first"
    [ "s6"; "s7"; "s8"; "s9" ] names

let test_fast_spans_not_slow () =
  let t = Tracing.create () in
  (* default threshold 10ms: a trivial span can never qualify *)
  Tracing.start t;
  Tracing.span t "quick" (fun () -> ());
  check Alcotest.int "slow log empty" 0 (List.length (Tracing.slow_log t))

(* -------- export -------- *)

let test_chrome_json_parses () =
  let t = Tracing.create () in
  Tracing.start t;
  Tracing.span t "outer \"quoted\"" ~attrs:[ ("weird", "a\\b\"c\nd") ]
    (fun () ->
      Tracing.instant t "tick";
      Tracing.span t "inner" (fun () -> ()));
  Tracing.stop t;
  let json = Tracing.to_chrome_json t in
  (try validate_json json
   with Bad_json msg -> Alcotest.failf "invalid chrome JSON (%s):\n%s" msg json);
  check Alcotest.bool "has traceEvents" true
    (Astring_contains.contains json "\"traceEvents\"");
  check Alcotest.bool "has complete-event phase" true
    (Astring_contains.contains json "\"ph\":\"X\"");
  check Alcotest.bool "has instant phase" true
    (Astring_contains.contains json "\"ph\":\"i\"")

let test_slow_log_json_parses () =
  let t = Tracing.create () in
  Tracing.set_slow_threshold_ns t 0;
  Tracing.start t;
  Tracing.span t "a" (fun () -> Tracing.span t "b" ~attrs:[ ("x", "1") ] (fun () -> ()));
  let json = Tracing.slow_log_json t in
  (try validate_json json
   with Bad_json msg -> Alcotest.failf "invalid slow-log JSON (%s):\n%s" msg json);
  check Alcotest.bool "ancestry present" true
    (Astring_contains.contains json "\"ancestry\":[\"a\"]")

let test_empty_exports () =
  let t = Tracing.create () in
  validate_json (Tracing.to_chrome_json t);
  validate_json (Tracing.slow_log_json t)

(* -------- metrics quantiles -------- *)

let test_hist_quantile () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "h" in
  check (Alcotest.float 0.0001) "empty" 0. (Metrics.hist_quantile h 0.5);
  (* 100 samples of the same value: every quantile must land in that
     sample's bucket (log2 buckets: 100 lives in (63, 127]). *)
  for _ = 1 to 100 do
    Metrics.observe h 100
  done;
  let p50 = Metrics.hist_quantile h 0.5 and p99 = Metrics.hist_quantile h 0.99 in
  check Alcotest.bool "p50 within bucket" true (p50 > 63. && p50 <= 100.);
  check Alcotest.bool "p99 within bucket" true (p99 > 63. && p99 <= 100.);
  check Alcotest.bool "monotone" true (p50 <= p99);
  (* A spread distribution: quantiles ordered and bounded by the max. *)
  let m2 = Metrics.create () in
  let h2 = Metrics.histogram m2 "h2" in
  for i = 0 to 999 do
    Metrics.observe h2 i
  done;
  let q10 = Metrics.hist_quantile h2 0.1
  and q50 = Metrics.hist_quantile h2 0.5
  and q99 = Metrics.hist_quantile h2 0.99 in
  check Alcotest.bool "ordered" true (q10 <= q50 && q50 <= q99);
  check Alcotest.bool "bounded" true (q99 <= 999.);
  (* log2 buckets put the true p50 (500) in (511, 1023] or (255, 511]:
     allow the documented factor-of-two slack. *)
  check Alcotest.bool "p50 within 2x" true (q50 >= 250. && q50 <= 1000.)

let test_metrics_json_has_quantiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  List.iter (Metrics.observe h) [ 1; 2; 3; 100 ];
  let json = Metrics.to_json m in
  validate_json json;
  check Alcotest.bool "p50 present" true
    (Astring_contains.contains json "\"p50\"");
  check Alcotest.bool "p99 present" true
    (Astring_contains.contains json "\"p99\"")

(* -------- tracing must not change WM behaviour -------- *)

let cmd_gen =
  QCheck2.Gen.(
    oneof
      [
        map
          (fun (x, y) -> Printf.sprintf "f.panTo(%d,%d)" x y)
          (pair (int_range 0 2200) (int_range 0 1700));
        map
          (fun (dx, dy) -> Printf.sprintf "f.pan(%d,%d)" dx dy)
          (pair (int_range (-400) 400) (int_range (-400) 400));
        return "f.iconify(XTerm)";
        return "f.deiconify(XTerm)";
        return "f.raise(XTerm)";
        return "f.lower(XClock)";
        return "f.raiseLower(XClock)";
        return "f.circulateUp";
        return "f.exec(beep)";
        return "definitely not a function";
        (* the error path must be identical too *)
      ])

(* The observers that claim to change no behaviour, each armed (or, for
   the ledger, which ships armed, disarmed) after start-up. *)
type observer = Tracer | Profiler | Recorder | Ledger_off

(* The rendered screen, and the requests the session issued after the
   observer was armed. *)
let final_state ?observer cmds =
  let server = Server.create () in
  let wm = Wm.start ~resources:[ Templates.open_look ] server in
  let _xterm = Stock.xterm server ~at:(Geom.point 60 80) () in
  let _xclock = Stock.xclock server ~at:(Geom.point 600 60) () in
  ignore (Wm.step wm);
  (match observer with
  | None -> ()
  | Some Tracer -> Tracing.start (Server.tracer server)
  | Some Profiler -> Swm_xlib.Profile.start (Server.profiler server)
  | Some Recorder -> Swm_xlib.Recorder.start (Server.recorder server)
  | Some Ledger_off -> Server.set_ledger server false);
  let requests0 = Server.request_count server in
  let sender = Server.connect server ~name:"driver" in
  List.iter
    (fun cmd ->
      Swmcmd.send server sender ~screen:0 cmd;
      ignore (Wm.step wm))
    cmds;
  ignore (Wm.step wm);
  (Wm.render_screen wm ~screen:0, Server.request_count server - requests0)

let prop_observers_transparent =
  QCheck2.Test.make ~name:"observers on/off reach identical WM state" ~count:30
    QCheck2.Gen.(list_size (int_range 1 25) cmd_gen)
    (fun cmds ->
      let plain = final_state cmds in
      List.for_all
        (fun observer -> final_state ~observer cmds = plain)
        [ Tracer; Profiler; Recorder; Ledger_off ])

let suite =
  [
    Alcotest.test_case "disabled tracer records nothing" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "spans nest" `Quick test_spans_nest;
    Alcotest.test_case "span closes on exception" `Quick
      test_span_closes_on_exception;
    Alcotest.test_case "ring overwrite keeps newest" `Quick
      test_ring_overwrite_keeps_newest;
    Alcotest.test_case "start clears, stop keeps" `Quick
      test_start_clears_stop_keeps;
    Alcotest.test_case "slow log ancestry" `Quick test_slow_log_ancestry;
    Alcotest.test_case "slow log capped" `Quick test_slow_log_capped;
    Alcotest.test_case "fast spans not slow" `Quick test_fast_spans_not_slow;
    Alcotest.test_case "chrome JSON parses" `Quick test_chrome_json_parses;
    Alcotest.test_case "slow-log JSON parses" `Quick test_slow_log_json_parses;
    Alcotest.test_case "empty exports parse" `Quick test_empty_exports;
    Alcotest.test_case "hist_quantile estimates" `Quick test_hist_quantile;
    Alcotest.test_case "metrics JSON has quantiles" `Quick
      test_metrics_json_has_quantiles;
    QCheck_alcotest.to_alcotest prop_observers_transparent;
  ]

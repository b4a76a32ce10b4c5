module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Prop = Swm_xlib.Prop
module Wm = Swm_core.Wm
module Ctx = Swm_core.Ctx
module Swmcmd = Swm_core.Swmcmd
module Templates = Swm_core.Templates
module Client_app = Swm_clients.Client_app
module Stock = Swm_clients.Stock

let check = Alcotest.check

let fixture () =
  let server = Server.create () in
  let wm =
    Wm.start
      ~resources:[ Templates.open_look; "swm*virtualDesktop: False\nswm*rootPanels:\n" ]
      server
  in
  (server, wm, Wm.ctx wm)

let client_of wm app = Option.get (Wm.find_client wm (Client_app.window app))

let test_command_executes () =
  let server, wm, _ctx = fixture () in
  let app = Stock.xterm server () in
  ignore (Wm.step wm);
  let sender = Server.connect server ~name:"swmcmd" in
  Swmcmd.send server sender ~screen:0 "f.iconify(XTerm)";
  ignore (Wm.step wm);
  check Alcotest.bool "executed" true ((client_of wm app).Ctx.state = Prop.Iconic)

let test_property_deleted_after_execution () =
  let server, wm, _ctx = fixture () in
  let sender = Server.connect server ~name:"swmcmd" in
  Swmcmd.send server sender ~screen:0 "f.refresh";
  ignore (Wm.step wm);
  check Alcotest.bool "property consumed" true
    (Server.get_property server (Server.root server ~screen:0) ~name:Prop.swm_command
    = None)

let test_multiple_commands_batched () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server () in
  ignore (Wm.step wm);
  let sender = Server.connect server ~name:"swmcmd" in
  (* Two sends before the WM wakes up: both lines must run. *)
  Swmcmd.send server sender ~screen:0 "f.iconify(XTerm)";
  Swmcmd.send server sender ~screen:0 "f.exec(beep)";
  ignore (Wm.step wm);
  check Alcotest.bool "first ran" true ((client_of wm app).Ctx.state = Prop.Iconic);
  check (Alcotest.list Alcotest.string) "second ran" [ "beep" ] ctx.Ctx.executed

let test_prompting_from_swmcmd () =
  (* The paper's example: typing `swmcmd f.raise` prompts for a window. *)
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 100 100) () in
  let other = Stock.xclock server ~at:(Geom.point 600 100) () in
  ignore (Wm.step wm);
  (* Put the clock on top so we can observe the raise. *)
  let clock = client_of wm other in
  Server.raise_window server ctx.Ctx.conn clock.Ctx.frame;
  let sender = Server.connect server ~name:"swmcmd" in
  Swmcmd.send server sender ~screen:0 "f.raise";
  ignore (Wm.step wm);
  (match ctx.Ctx.mode with
  | Ctx.Prompting _ -> ()
  | _ -> Alcotest.fail "should be prompting");
  Server.warp_pointer server ~screen:0 (Geom.point 150 150);
  Server.press_button server 1;
  ignore (Wm.step wm);
  let term = client_of wm app in
  let top =
    match List.rev (Server.children_of server (Server.root server ~screen:0)) with
    | top :: _ -> top
    | [] -> Alcotest.fail "no children"
  in
  check Alcotest.bool "selected window raised" true
    (Swm_xlib.Xid.equal top term.Ctx.frame)

let test_bad_command_ignored () =
  let server, wm, _ctx = fixture () in
  let sender = Server.connect server ~name:"swmcmd" in
  Swmcmd.send server sender ~screen:0 "not even a function";
  (* Must not raise. *)
  ignore (Wm.step wm)

let test_bad_command_counted () =
  let server, wm, _ctx = fixture () in
  Swm_xlib.Tracing.start (Server.tracer server);
  let sender = Server.connect server ~name:"swmcmd" in
  Swmcmd.send server sender ~screen:0 "not even a function";
  Swmcmd.send server sender ~screen:0 "f.refresh";
  (* a good line must not count *)
  ignore (Wm.step wm);
  check Alcotest.int "error counted" 1
    (Swm_xlib.Metrics.counter_value (Server.metrics server) "swmcmd.errors");
  (* The offending line survives as a trace breadcrumb. *)
  let errors =
    List.filter
      (fun (e : Swm_xlib.Tracing.event) -> e.ev_name = "swmcmd.error")
      (Swm_xlib.Tracing.events (Server.tracer server))
  in
  match errors with
  | [ e ] ->
      check (Alcotest.option Alcotest.string) "line kept"
        (Some "not even a function")
        (List.assoc_opt "line" e.ev_attrs)
  | l -> Alcotest.failf "expected 1 swmcmd.error instant, got %d" (List.length l)

let test_bad_command_replies () =
  (* A failed line replaces the previous reply with an error naming the
     typo, so the sender cannot mistake a stale reply for a fresh one. *)
  let server, wm, _ctx = fixture () in
  let sender = Server.connect server ~name:"swmcmd" in
  let reply line =
    Swmcmd.send server sender ~screen:0 line;
    ignore (Wm.step wm);
    Option.value (Swmcmd.read_result server ~screen:0) ~default:""
  in
  check Alcotest.bool "health replied" true
    (Astring_contains.contains (reply "f.query(health)") "\"status\"");
  let err = reply "f.helth" in
  check Alcotest.bool "error reply" true
    (String.starts_with ~prefix:"{\"error\":" err);
  check Alcotest.bool "names the unknown function" true
    (Astring_contains.contains err "f.helth");
  check Alcotest.int "counted" 1
    (Swm_xlib.Metrics.counter_value (Server.metrics server) "swmcmd.errors")

(* -------- introspection: the channel run in reverse -------- *)

let test_query_errors () =
  (* A missing or unknown section, or an argument the section does not
     take, is an in-band error; the unknown-section error lists the
     sections.  None of them is an unknown function. *)
  let server, wm, _ctx = fixture () in
  let sender = Server.connect server ~name:"swmcmd" in
  let reply line =
    Swmcmd.send server sender ~screen:0 line;
    ignore (Wm.step wm);
    Option.value (Swmcmd.read_result server ~screen:0) ~default:""
  in
  List.iter
    (fun line ->
      let err = reply line in
      check Alcotest.bool (line ^ " is an error reply") true
        (String.starts_with ~prefix:"{\"error\":" err);
      check Alcotest.bool (line ^ " names f.query") true
        (Astring_contains.contains err "f.query"))
    [ "f.query"; "f.query(nope)"; "f.query(health,now)"; "f.query(trace,dump)";
      "f.query(flame)" ];
  check Alcotest.bool "unknown section lists the sections" true
    (Astring_contains.contains (reply "f.query(nope)") "metrics, stats, health");
  check Alcotest.int "not counted as bad lines" 0
    (Swm_xlib.Metrics.counter_value (Server.metrics server) "swmcmd.errors");
  (* Sections are case-insensitive, like function names. *)
  check Alcotest.bool "F.Query(Health) answers" true
    (Astring_contains.contains (reply "F.Query(Health)") "\"status\"")

let test_metrics_roundtrip () =
  let server, wm, _ctx = fixture () in
  let sender = Server.connect server ~name:"swmcmd" in
  check (Alcotest.option Alcotest.string) "no reply yet" None
    (Swmcmd.read_result server ~screen:0);
  Swmcmd.send server sender ~screen:0 "f.query(metrics)";
  ignore (Wm.step wm);
  match Swmcmd.read_result server ~screen:0 with
  | None -> Alcotest.fail "f.query(metrics) left no SWM_RESULT"
  | Some json ->
      check Alcotest.bool "looks like the registry dump" true
        (Astring_contains.contains json "\"counters\"")

let test_trace_roundtrip () =
  (* Full vdesk fixture: the pan must produce a vdesk.pan_to span nested in
     the dispatch span, all retrievable out-of-process. *)
  let server = Server.create () in
  let wm = Wm.start ~resources:[ Templates.open_look ] server in
  let _xterm = Stock.xterm server ~at:(Geom.point 60 80) () in
  ignore (Wm.step wm);
  let sender = Server.connect server ~name:"swmcmd" in
  let roundtrip line =
    Swmcmd.send server sender ~screen:0 line;
    ignore (Wm.step wm)
  in
  roundtrip "f.query(trace,start)";
  roundtrip "f.panTo(300,200)";
  roundtrip "f.iconify(XTerm)";
  roundtrip "f.query(trace,stop)";
  roundtrip "f.query(trace)";
  match Swmcmd.read_result server ~screen:0 with
  | None -> Alcotest.fail "f.query(trace) left no SWM_RESULT"
  | Some json ->
      List.iter
        (fun span ->
          check Alcotest.bool (span ^ " span present") true
            (Astring_contains.contains json ("\"name\":\"" ^ span ^ "\"")))
        [ "wm.dispatch"; "f.panto"; "vdesk.pan_to"; "panner.refresh";
          "f.iconify" ]

let test_slowlog_roundtrip () =
  let server, wm, _ctx = fixture () in
  Swm_xlib.Tracing.set_slow_threshold_ns (Server.tracer server) 0;
  let sender = Server.connect server ~name:"swmcmd" in
  let roundtrip line =
    Swmcmd.send server sender ~screen:0 line;
    ignore (Wm.step wm)
  in
  roundtrip "f.query(trace,start)";
  roundtrip "f.refresh";
  roundtrip "f.query(slowlog)";
  match Swmcmd.read_result server ~screen:0 with
  | None -> Alcotest.fail "f.query(slowlog) left no SWM_RESULT"
  | Some json ->
      check Alcotest.bool "f.refresh made the zero-threshold slow log" true
        (Astring_contains.contains json "\"name\":\"f.refresh\"")

let suite =
  [
    Alcotest.test_case "command executes" `Quick test_command_executes;
    Alcotest.test_case "property deleted after run" `Quick
      test_property_deleted_after_execution;
    Alcotest.test_case "batched commands" `Quick test_multiple_commands_batched;
    Alcotest.test_case "prompting from swmcmd (paper example)" `Quick
      test_prompting_from_swmcmd;
    Alcotest.test_case "bad commands ignored" `Quick test_bad_command_ignored;
    Alcotest.test_case "bad commands counted and traced" `Quick
      test_bad_command_counted;
    Alcotest.test_case "bad line replies with an error" `Quick
      test_bad_command_replies;
    Alcotest.test_case "f.query errors" `Quick test_query_errors;
    Alcotest.test_case "f.metrics round-trip" `Quick test_metrics_roundtrip;
    Alcotest.test_case "f.trace round-trip" `Quick test_trace_roundtrip;
    Alcotest.test_case "f.slowlog round-trip" `Quick test_slowlog_roundtrip;
  ]

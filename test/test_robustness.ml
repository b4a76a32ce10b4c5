(* Corner cases and failure injection: clients dying at awkward moments,
   functions applied to degenerate targets, malformed configuration. *)

module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid
module Prop = Swm_xlib.Prop
module Wm = Swm_core.Wm
module Ctx = Swm_core.Ctx
module Icons = Swm_core.Icons
module Functions = Swm_core.Functions
module Templates = Swm_core.Templates
module Client_app = Swm_clients.Client_app
module Stock = Swm_clients.Stock

let check = Alcotest.check

let fixture ?(extra = "") ?(vdesk = false) () =
  let server = Server.create () in
  let base =
    if vdesk then "swm*rootPanels:\n" else "swm*virtualDesktop: False\nswm*rootPanels:\n"
  in
  let wm = Wm.start ~resources:[ Templates.open_look; base ^ extra ] server in
  (server, wm, Wm.ctx wm)

let client_of wm app = Option.get (Wm.find_client wm (Client_app.window app))

let run ctx ?client text =
  match
    Functions.execute_string ctx (Functions.invocation ?client ~screen:0 ()) text
  with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "execute: %s" msg

let test_client_dies_mid_move () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 100 100) () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  run ctx ~client "f.move";
  (match ctx.Ctx.mode with Ctx.Moving _ -> () | _ -> Alcotest.fail "not moving");
  (* The client dies while the WM is dragging its frame. *)
  Client_app.destroy app;
  ignore (Wm.step wm);
  check Alcotest.bool "unmanaged" true (Wm.find_client wm (Client_app.window app) = None);
  (* Further motion/release must not blow up even though the grab window
     is gone. *)
  Server.warp_pointer server ~screen:0 (Geom.point 400 400);
  Server.press_button server 1;
  Server.release_button server 1;
  ignore (Wm.step wm)

let test_client_dies_while_prompting () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server ~at:(Geom.point 100 100) () in
  ignore (Wm.step wm);
  run ctx "f.iconify";
  (match ctx.Ctx.mode with Ctx.Prompting _ -> () | _ -> Alcotest.fail "not prompting");
  Client_app.destroy app;
  ignore (Wm.step wm);
  (* Click on the now-empty root: prompt resolves to nothing and resets. *)
  Server.warp_pointer server ~screen:0 (Geom.point 500 500);
  Server.press_button server 1;
  ignore (Wm.step wm);
  check Alcotest.bool "idle again" true (ctx.Ctx.mode = Ctx.Idle)

let test_zoom_and_stick_on_undecorated () =
  let server, wm, ctx =
    fixture ~extra:"swm*XTerm*decoration: none\n" ~vdesk:true ()
  in
  let app = Stock.xterm server ~at:(Geom.point 50 50) () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  check Alcotest.bool "undecorated" true (Xid.equal client.Ctx.frame client.Ctx.cwin);
  run ctx ~client "f.save f.zoom";
  let g = Server.geometry server client.Ctx.cwin in
  let sw, _ = Server.screen_size server ~screen:0 in
  check Alcotest.bool "zoomed" true (g.w > sw / 2);
  run ctx ~client "f.save f.zoom";
  run ctx ~client "f.stick";
  check Alcotest.bool "stuck" true client.Ctx.sticky;
  check Alcotest.bool "frame on root" true
    (Xid.equal (Server.parent_of server client.Ctx.cwin) (Server.root server ~screen:0));
  run ctx ~client "f.stick";
  check Alcotest.bool "unstuck" false client.Ctx.sticky

let test_delete_twice () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  run ctx ~client "f.delete f.delete";
  ignore (Wm.step wm);
  check Alcotest.bool "gone" true (Wm.find_client wm (Client_app.window app) = None)

let test_missing_decoration_panel () =
  (* Decoration resource names a panel that has no definition: the client
     must still be managed, undecorated. *)
  let server, wm, _ctx = fixture ~extra:"swm*XTerm*decoration: noSuchPanel\n" () in
  let app = Stock.xterm server ~at:(Geom.point 20 20) () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  check Alcotest.bool "managed without decoration" true
    (Xid.equal client.Ctx.frame client.Ctx.cwin);
  check Alcotest.bool "mapped" true (Server.is_viewable server client.Ctx.cwin)

let test_decoration_without_client_panel () =
  (* A decoration panel with no [client] sub-panel is a config error; the
     client is parented into the frame itself. *)
  let server, wm, _ctx =
    fixture
      ~extra:
        "Swm*panel.weird: button name +C+0\nswm*XTerm*decoration: weird\n" ()
  in
  let app = Stock.xterm server ~at:(Geom.point 20 20) () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  check Alcotest.bool "frame exists" true (Server.window_exists server client.Ctx.frame);
  check Alcotest.bool "client inside frame" true
    (Xid.equal (Server.parent_of server client.Ctx.cwin) client.Ctx.frame)

let test_withdraw_while_iconic () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  Icons.iconify ctx client;
  let icon_win = Swm_oi.Wobj.window (Option.get client.Ctx.icon_obj) in
  (* Destroy while iconified: the icon must go away too. *)
  Client_app.destroy app;
  ignore (Wm.step wm);
  check Alcotest.bool "unmanaged" true (Wm.find_client wm (Client_app.window app) = None);
  check Alcotest.bool "icon destroyed" false (Server.window_exists server icon_win)

let test_configure_request_while_iconic () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  Icons.iconify ctx client;
  Client_app.resize_self app (600, 420);
  ignore (Wm.step wm);
  let g = Server.geometry server client.Ctx.cwin in
  check Alcotest.int "resize honoured while iconic" 600 g.w;
  Icons.deiconify ctx client;
  check Alcotest.bool "still iconifiable/deiconifiable" true
    (client.Ctx.state = Prop.Normal)

let test_unknown_menu () =
  let _server, _wm, ctx = fixture () in
  run ctx "f.menu(doesNotExist)";
  check Alcotest.bool "no menu posted" true
    ((Ctx.screen ctx 0).Ctx.active_menu = None)

let test_bad_window_id_function () =
  let _server, _wm, ctx = fixture () in
  (* Nonexistent id: silently no targets. *)
  run ctx "f.iconify(#0xdead)";
  run ctx "f.iconify(#999999)"

let test_iconify_iconified () =
  let server, wm, ctx = fixture () in
  let app = Stock.xterm server () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  Icons.iconify ctx client;
  Icons.iconify ctx client;
  check Alcotest.bool "still one icon" true (client.Ctx.icon_obj <> None);
  Icons.deiconify ctx client;
  Icons.deiconify ctx client;
  check Alcotest.bool "normal" true (client.Ctx.state = Prop.Normal)

let test_reparent_cycle_rejected () =
  let server = Server.create () in
  let conn = Server.connect server ~name:"c" in
  let root = Server.root server ~screen:0 in
  let a = Server.create_window server conn ~parent:root ~geom:(Geom.rect 0 0 10 10) () in
  let b = Server.create_window server conn ~parent:a ~geom:(Geom.rect 0 0 5 5) () in
  Alcotest.check_raises "cycle rejected"
    (Server.Bad_access "reparent would create a cycle") (fun () ->
      Server.reparent_window server conn a ~new_parent:b ~pos:(Geom.point 0 0));
  Alcotest.check_raises "self rejected"
    (Server.Bad_access "reparent would create a cycle") (fun () ->
      Server.reparent_window server conn a ~new_parent:a ~pos:(Geom.point 0 0))

let test_empty_resources () =
  (* No configuration at all: the default template loads (paper §3: "If no
     swm configuration resources have been specified, a default
     configuration can be loaded"). *)
  let server = Server.create () in
  let wm = Wm.start server in
  let app = Stock.xterm server ~at:(Geom.point 10 10) () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  check Alcotest.bool "decorated by the default template" true
    (client.Ctx.deco <> None)

let test_malformed_bindings_ignored () =
  let server, wm, _ctx =
    fixture ~extra:"swm*button.name.bindings: total <garbage\n" ()
  in
  let app = Stock.xterm server () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  let name_obj =
    Option.get (Swm_oi.Wobj.find_descendant (Option.get client.Ctx.deco) ~name:"name")
  in
  let abs = Server.root_geometry server (Swm_oi.Wobj.window name_obj) in
  Server.warp_pointer server ~screen:0 (Geom.point (abs.x + 1) (abs.y + 1));
  Server.press_button server 1;
  (* Must not raise; the malformed bindings resource yields no actions. *)
  ignore (Wm.step wm)

let test_wm_restart_under_load () =
  (* Start, load up, shutdown, start again: all clients survive and are
     re-managed; no stale state leaks across instances. *)
  let server = Server.create () in
  let wm1 = Wm.start ~resources:[ Templates.open_look ] server in
  let apps = Swm_clients.Workload.launch_n server 12 in
  ignore (Wm.step wm1);
  Wm.shutdown wm1;
  List.iter
    (fun app ->
      let win = Client_app.window app in
      if Server.window_exists server win then begin
        check Alcotest.bool "on root after shutdown" true
          (Xid.equal (Server.parent_of server win) (Server.root server ~screen:0))
      end)
    apps;
  let wm2 = Wm.start ~resources:[ Templates.open_look ] server in
  ignore (Wm.step wm2);
  let managed =
    List.length (List.filter (fun app -> Wm.find_client wm2 (Client_app.window app) <> None) apps)
  in
  check Alcotest.int "all clients re-managed" 12 managed

(* ---- Overload protection & self-healing ---- *)

module Metrics = Swm_xlib.Metrics
module Health = Swm_xlib.Health
module Event = Swm_xlib.Event
module Recorder = Swm_xlib.Recorder
module Governor = Swm_core.Governor
module Supervisor = Swm_core.Supervisor
module Workload = Swm_clients.Workload
module Fault = Swm_xlib.Fault

let resources =
  [ Templates.open_look; "swm*virtualDesktop: False\nswm*rootPanels:\n" ]

let no_quarantine server =
  (* Keep a test focused on backpressure/tiers: health never trips. *)
  Server.set_health_thresholds server
    {
      Swm_xlib.Health.default_thresholds with
      quarantine_score = infinity;
      evict_score = infinity;
    }

let test_backpressure_bounds_queue () =
  let server = Server.create () in
  Server.set_queue_cap server 64;
  no_quarantine server;
  let conn = Server.connect server ~name:"hog" in
  let root = Server.root server ~screen:0 in
  (* More windows than cap slots: coalescing (which folds same-window
     events) cannot absorb the storm, so the shed path must engage. *)
  for _ = 1 to 96 do
    ignore
      (Server.create_window server conn ~parent:root ~geom:(Geom.rect 0 0 20 20)
         ())
  done;
  Server.flood_conn server conn ~burst:10_000;
  let m = Server.metrics server in
  check Alcotest.bool "pending bounded by the cap" true
    (Server.pending conn <= 64);
  check Alcotest.bool "max observed depth bounded" true
    (Metrics.gauge_value m "queue.depth" <= 64);
  check Alcotest.bool "sheds were counted" true
    (Metrics.counter_value m "events.shed" > 0);
  check Alcotest.int "no state-bearing event shed" 0
    (Metrics.counter_value m "events.shed.state_bearing");
  check Alcotest.bool "connection attributed its sheds" true
    (Server.shed_count conn > 0)

let test_state_bearing_overruns_cap () =
  let server = Server.create () in
  Server.set_queue_cap server 4;
  no_quarantine server;
  let conn = Server.connect server ~name:"tiny" in
  let root = Server.root server ~screen:0 in
  let parent =
    Server.create_window server conn ~parent:root ~geom:(Geom.rect 0 0 50 50) ()
  in
  Server.select_input server conn parent [ Event.Substructure_notify ];
  (* Twelve state-bearing notifications into a cap-4 queue: every single
     one must arrive — the cap is overrun rather than session state lost. *)
  let kids =
    List.init 12 (fun _ ->
        Server.create_window server conn ~parent ~geom:(Geom.rect 0 0 5 5) ())
  in
  List.iter (fun k -> Server.destroy_window server k) kids;
  let rec drain acc =
    match Server.next_event conn with
    | Some e -> drain (e :: acc)
    | None -> acc
  in
  let destroys =
    List.length
      (List.filter
         (fun e -> Event.kind_name e = "DestroyNotify")
         (drain []))
  in
  check Alcotest.int "every DestroyNotify delivered" 12 destroys;
  check Alcotest.bool "cap overruns counted" true
    (Metrics.counter_value (Server.metrics server) "queue.cap_overruns" > 0);
  check Alcotest.int "still zero state-bearing sheds" 0
    (Metrics.counter_value (Server.metrics server) "events.shed.state_bearing")

let test_health_state_machine () =
  let th = Swm_xlib.Health.default_thresholds in
  let sample ~depth ~shed h =
    Health.observe th h ~depth_ratio:depth ~shed ~rejected:0 ~xerrors:0 ~stalls:0
  in
  (* Sustained pressure: quarantine, then eviction. *)
  let h = Health.create () in
  let shed = ref 0 in
  let seen = ref [] in
  for _ = 1 to 6 do
    shed := !shed + 50;
    match sample ~depth:1.0 ~shed:!shed h with
    | Health.Became s -> seen := s :: !seen
    | Health.No_change -> ()
  done;
  check
    Alcotest.(list string)
    "escalates one state per tick"
    [ "throttled"; "evicted" ]
    (List.rev_map Health.state_name !seen);
  (* One burst, then calm: hysteresis recovers the connection. *)
  let h = Health.create () in
  (match sample ~depth:1.0 ~shed:10 h with
  | Health.Became Health.Throttled -> ()
  | _ -> Alcotest.fail "burst should quarantine");
  let recovered = ref false in
  for _ = 1 to 6 do
    match sample ~depth:0.0 ~shed:10 h with
    | Health.Became Health.Healthy -> recovered := true
    | _ -> ()
  done;
  check Alcotest.bool "calm ticks recover" true !recovered;
  check Alcotest.string "healthy again" "healthy"
    (Health.state_name h.Health.state)

let test_flooder_quarantined_then_evicted () =
  let server = Server.create () in
  Server.set_queue_cap server 32;
  let conn = Server.connect server ~name:"flooder" in
  let root = Server.root server ~screen:0 in
  (* Enough windows that the flood actually sheds (coalescing can't keep
     up), so the health score sees real pressure. *)
  for _ = 1 to 64 do
    ignore
      (Server.create_window server conn ~parent:root ~geom:(Geom.rect 0 0 20 20)
         ())
  done;
  let m = Server.metrics server in
  let ticks = ref 0 in
  while Server.conn_health conn <> Health.Evicted && !ticks < 50 do
    incr ticks;
    Server.flood_conn server conn ~burst:2000;
    Server.health_tick server
  done;
  check Alcotest.bool "flooder was quarantined on the way" true
    (Metrics.counter_value m "health.quarantined" > 0);
  check Alcotest.string "flooder evicted" "evicted"
    (Health.state_name (Server.conn_health conn));
  check Alcotest.int "eviction counted" 1
    (Metrics.counter_value m "health.evicted")

(* Quiet ticks before a quarantine must not shorten it: a client throttled
   by slowly rising pressure (every tick below the 0.5 quiet line) still
   sits out calm_ticks quiet ticks once throttled. *)
let test_calm_counts_only_while_throttled () =
  let th =
    { Health.quarantine_score = 8.0; evict_score = 1000.0; calm_ticks = 3; decay = 0.95 }
  in
  let sample depth h =
    Health.observe th h ~depth_ratio:depth ~shed:0 ~rejected:0 ~xerrors:0 ~stalls:0
  in
  let h = Health.create () in
  (* Pressure 0.45 a tick: the score climbs toward 9 and crosses 8 at tick
     43, every one of those ticks quiet. *)
  let rec throttle tick =
    if tick > 100 then Alcotest.fail "never throttled"
    else
      match sample 0.1125 h with
      | Health.Became Health.Throttled -> tick
      | _ -> throttle (tick + 1)
  in
  check Alcotest.int "throttled at tick 43" 43 (throttle 1);
  check Alcotest.bool "score just over the quarantine line" true
    (Float.abs (h.Health.score -. 8.008) < 0.001);
  let quiet () =
    ignore (sample 0.0 h);
    Health.state_name h.Health.state
  in
  let first = quiet () in
  let second = quiet () in
  let third = quiet () in
  check Alcotest.(list string) "recovery on the third quiet tick"
    [ "throttled"; "throttled"; "healthy" ] [ first; second; third ]

(* Thresholds under which an idle connection would change state on its own
   are refused; the bounds and the tests' infinite scores are accepted. *)
let test_health_thresholds_validated () =
  let server = Server.create () in
  let d = Health.default_thresholds in
  List.iter
    (fun (what, th) ->
      match Server.set_health_thresholds server th with
      | () -> Alcotest.failf "accepted %s" what
      | exception Invalid_argument _ -> ())
    [
      ("quarantine 0", { d with quarantine_score = 0.0 });
      ("negative quarantine", { d with quarantine_score = -1.0 });
      ("NaN quarantine", { d with quarantine_score = Float.nan });
      ("negative decay", { d with decay = -0.1 });
      ("decay above 1", { d with decay = 1.5 });
      ("NaN decay", { d with decay = Float.nan });
      ("infinite decay", { d with decay = Float.infinity });
    ];
  check Alcotest.bool "a refused set leaves the thresholds" true
    (Server.health_thresholds server = d);
  List.iter
    (fun th ->
      Server.set_health_thresholds server th;
      check Alcotest.bool "accepted" true (Server.health_thresholds server = th))
    [
      { d with decay = 0.0 };
      { d with decay = 1.0 };
      { d with quarantine_score = Float.infinity; evict_score = Float.infinity };
    ]

(* ---- The health tick's active set ---- *)

(* Differential property: through random interleavings of everything that
   wakes a connection, a server ticking over its active set leaves every
   connection exactly as a twin ticking with the reference fold over all
   connections does.  [max_queue_ratio] must agree with the fold after
   every step, and health transitions must be recorded in the same order.
   Armed fault plans stall and kill unprotected connections, so the fault
   harness's stall toggle and closed connections are covered too. *)
type hop =
  | Connect
  | Disconnect of int
  | Window of int
  | Flood of int * int
  | Read of int * int
  | Stall of int * bool
  | Rejected of int
  | Xerror of int
  | Cap of int
  | Protect of int list
  | Unprotect
  | Exempt of int * bool
  | Tick

let show_hop = function
  | Connect -> "connect"
  | Disconnect i -> Printf.sprintf "disconnect %d" i
  | Window i -> Printf.sprintf "window %d" i
  | Flood (i, n) -> Printf.sprintf "flood %d %d" i n
  | Read (i, n) -> Printf.sprintf "read %d %d" i n
  | Stall (i, b) -> Printf.sprintf "stall %d %b" i b
  | Rejected i -> Printf.sprintf "rejected %d" i
  | Xerror i -> Printf.sprintf "xerror %d" i
  | Cap n -> Printf.sprintf "cap %d" n
  | Protect is -> "protect [" ^ String.concat ";" (List.map string_of_int is) ^ "]"
  | Unprotect -> "unprotect"
  | Exempt (i, b) -> Printf.sprintf "exempt %d %b" i b
  | Tick -> "tick"

let hop_gen =
  QCheck2.Gen.(
    let c = int_range 0 15 in
    frequency
      [
        (2, pure Connect);
        (1, map (fun i -> Disconnect i) c);
        (2, map (fun i -> Window i) c);
        (4, map2 (fun i n -> Flood (i, n)) c (int_range 1 64));
        (3, map2 (fun i n -> Read (i, n)) c (int_range 1 32));
        (1, map2 (fun i b -> Stall (i, b)) c bool);
        (2, map (fun i -> Rejected i) c);
        (2, map (fun i -> Xerror i) c);
        (1, map (fun n -> Cap n) (int_range 1 48));
        (1, map (fun is -> Protect is) (list_size (int_range 0 3) c));
        (1, pure Unprotect);
        (1, map2 (fun i b -> Exempt (i, b)) c bool);
        (6, pure Tick);
      ])

let thresholds_gen =
  QCheck2.Gen.(
    map4
      (fun quarantine_score extra calm_ticks decay ->
        { Health.quarantine_score; evict_score = quarantine_score +. extra; calm_ticks; decay })
      (float_range 0.5 12.0) (float_range 0.0 30.0) (int_range 1 4) (float_range 0.0 0.99))

let show_thresholds (th : Health.thresholds) =
  Printf.sprintf "{quarantine %g; evict %g; calm %d; decay %g}" th.quarantine_score
    th.evict_score th.calm_ticks th.decay

let fault_plan = { Fault.quiet with seed = 11; p_stall_connection = 0.2; p_kill_connection = 0.02 }

let prop_active_tick_matches_fold =
  QCheck2.Test.make ~name:"active-set tick equals the reference fold" ~count:300
    ~print:(fun (th, hops) ->
      show_thresholds th ^ " " ^ String.concat "; " (List.map show_hop hops))
    QCheck2.Gen.(pair thresholds_gen (list_size (int_range 1 200) hop_gen))
    (fun (th, hops) ->
      let make () =
        let server = Server.create () in
        Server.set_health_thresholds server th;
        Recorder.start (Server.recorder server);
        (server, ref [||])
      in
      let a, conns_a = make () and b, conns_b = make () in
      let both f =
        f a conns_a;
        f b conns_b
      in
      let nth conns i =
        let n = Array.length !conns in
        if n = 0 then None else Some !conns.(i mod n)
      in
      let on i f = both (fun server conns -> Option.iter (f server) (nth conns i)) in
      let step = function
        | Connect ->
            both (fun server conns ->
                let name = Printf.sprintf "c%d" (Array.length !conns) in
                conns := Array.append !conns [| Server.connect server ~name |])
        | Disconnect i ->
            on i (fun server c -> if Server.conn_alive c then Server.disconnect server c)
        | Window i ->
            on i (fun server c ->
                if Server.conn_alive c then
                  ignore
                    (Server.create_window server c ~parent:(Server.root server ~screen:0)
                       ~geom:(Geom.rect 0 0 10 10) ()))
        | Flood (i, n) -> on i (fun server c -> Server.flood_conn server c ~burst:n)
        | Read (i, n) -> on i (fun _ c -> ignore (Server.read_events_stamped c ~max:n))
        | Stall (i, flag) -> on i (fun _ c -> Server.set_stalled c flag)
        | Rejected i -> on i (fun _ c -> Server.note_rejected c)
        | Xerror i -> on i (fun _ c -> Server.note_conn_xerror c)
        | Cap n -> both (fun server _ -> Server.set_queue_cap server n)
        | Protect is ->
            both (fun server conns ->
                ignore
                  (Server.arm_faults server ~protect:(List.filter_map (nth conns) is)
                     fault_plan))
        | Unprotect -> both (fun server _ -> Server.disarm_faults server)
        | Exempt (i, flag) -> on i (fun _ c -> Server.set_journal_exempt c flag)
        | Tick ->
            Server.health_tick a;
            Server.health_tick_fold b
      in
      let view c =
        ( Server.conn_alive c,
          Server.conn_health c,
          Server.conn_health_score c,
          Server.is_throttled c,
          Server.pending c )
      in
      let health_log server =
        List.filter_map
          (fun (e : Recorder.entry) ->
            if e.kind = "health" then Some (e.what, e.attrs) else None)
          (Recorder.entries (Server.recorder server))
      in
      List.for_all
        (fun hop ->
          step hop;
          Array.for_all2 (fun x y -> view x = view y) !conns_a !conns_b
          && Server.max_queue_ratio a = Server.max_queue_ratio_fold b
          && (hop <> Tick || health_log a = health_log b))
        hops)

(* Per-tick cost follows the connections with something to report: one
   fixed sequence over six busy connections examines the same connections
   tick by tick whether 0, 1,000 or 10,000 idle connections sit beside
   them (half connected before the busy ones, half after). *)
let visits_per_tick ~idle =
  let server = Server.create () in
  let idlers n =
    for i = 1 to n do
      ignore (Server.connect server ~name:(Printf.sprintf "idle%d" i))
    done
  in
  idlers (idle / 2);
  let busy =
    List.init 6 (fun i ->
        let conn = Server.connect server ~name:(Printf.sprintf "busy%d" i) in
        ignore
          (Server.create_window server conn ~parent:(Server.root server ~screen:0)
             ~geom:(Geom.rect 0 0 10 10) ());
        conn)
  in
  idlers (idle - (idle / 2));
  List.init 24 (fun round ->
      List.iteri
        (fun i conn ->
          if (round + i) mod 3 = 0 then Server.flood_conn server conn ~burst:8;
          if (round + i) mod 4 = 0 then ignore (Server.flush_batch conn);
          if round * i mod 7 = 1 then Server.note_rejected conn)
        busy;
      if round = 10 || round = 14 then Server.set_stalled (List.hd busy) (round = 10);
      let v0 = Server.tick_visits server in
      ignore (Server.max_queue_ratio server);
      Server.health_tick server;
      Server.tick_visits server - v0)

let test_tick_visits_independent_of_idle () =
  let base = visits_per_tick ~idle:0 in
  check Alcotest.(list int) "1,000 idle connections" base (visits_per_tick ~idle:1_000);
  check Alcotest.(list int) "10,000 idle connections" base (visits_per_tick ~idle:10_000);
  check Alcotest.bool "at most the six busy connections per tick" true
    (List.for_all (fun v -> v <= 6) base);
  (* The reference examines every connection, idle or not. *)
  let server = Server.create () in
  for i = 1 to 100 do
    ignore (Server.connect server ~name:(Printf.sprintf "idle%d" i))
  done;
  Server.health_tick server;
  check Alcotest.int "an idle fleet costs the tick nothing" 0 (Server.tick_visits server);
  Server.health_tick_fold server;
  check Alcotest.int "the fold examines all of it" 100 (Server.tick_visits server)

(* A connection that had one event pending at a tick and then read it
   must come to rest, and so leave the active set, within a few ticks: a
   decaying score alone reaches 0 only after about a thousand. *)
let test_drained_conn_comes_to_rest () =
  let server = Server.create () in
  let conn = Server.connect server ~name:"reader" in
  ignore
    (Server.create_window server conn ~parent:(Server.root server ~screen:0)
       ~geom:(Geom.rect 0 0 10 10) ());
  Server.flood_conn server conn ~burst:1;
  Server.health_tick server;
  check Alcotest.int "active while an event is pending" 1 (Server.active_count server);
  ignore (Server.flush_batch conn);
  let rec ticks n =
    if Server.active_count server = 0 || n > 16 then n
    else begin
      Server.health_tick server;
      ticks (n + 1)
    end
  in
  let n = ticks 0 in
  check Alcotest.bool (Printf.sprintf "at rest after %d ticks (at most 16)" n) true (n <= 16);
  check (Alcotest.float 0.0) "score snapped to 0" 0.0 (Server.conn_health_score conn)

(* The rest floor applies only on a tick with no pressure: with decay 1,
   steady pressure below the floor still adds up to a quarantine. *)
let test_slow_pressure_still_builds_up () =
  let th =
    { Health.quarantine_score = 8.0; evict_score = 24.0; calm_ticks = 3; decay = 1.0 }
  in
  let sample h =
    Health.observe th h ~depth_ratio:0.0005 ~shed:0 ~rejected:0 ~xerrors:0 ~stalls:0
  in
  let h = Health.create () in
  ignore (sample h);
  check (Alcotest.float 1e-12) "a score under the floor is kept" 0.002 h.Health.score;
  let rec throttle tick =
    if tick > 4100 then Alcotest.fail "never throttled"
    else
      match sample h with
      | Health.Became Health.Throttled -> ()
      | _ -> throttle (tick + 1)
  in
  throttle 2

let test_governor_tier_ladder () =
  let server = Server.create () in
  let wm = Wm.start ~resources server in
  let ctx = Wm.ctx wm in
  Server.set_queue_cap server 32;
  no_quarantine server;
  let app = Stock.xterm server () in
  ignore (Wm.step wm);
  let conn = Client_app.conn app in
  Server.flood_conn server conn ~burst:2000;
  Governor.tick ctx;
  check Alcotest.string "escalates straight to essential" "essential"
    (Ctx.tier_name ctx.Ctx.tier);
  (* Drain the flooded queue: pressure gone, but restoration waits for
     calm ticks. *)
  while Server.pending conn > 0 do
    ignore (Server.flush_batch conn)
  done;
  for _ = 1 to Governor.restore_calm_ticks - 1 do
    Governor.tick ctx
  done;
  check Alcotest.string "still essential before the last calm tick" "essential"
    (Ctx.tier_name ctx.Ctx.tier);
  Governor.tick ctx;
  check Alcotest.string "full service restored" "full"
    (Ctx.tier_name ctx.Ctx.tier);
  check Alcotest.int "two transitions counted" 2
    (Metrics.counter_value (Server.metrics server) "governor.transitions")

let test_degraded_tier_skips_luxury_work () =
  let server = Server.create () in
  let wm = Wm.start ~resources server in
  let ctx = Wm.ctx wm in
  let _app = Stock.xterm server () in
  ignore (Wm.step wm);
  ctx.Ctx.tier <- Ctx.Tier_essential;
  Swm_core.Panner.refresh ctx ~screen:0;
  let m = Server.metrics server in
  check Alcotest.bool "panner refresh skipped" true
    (Metrics.counter_value m "governor.refreshes_skipped" > 0);
  ctx.Ctx.tier <- Ctx.Tier_full

(* A retitle is state, not luxury: its PropertyNotify is never shed, so a
   title changed while the WM is degraded must read the new name once
   full service is back. *)
let test_retitle_while_degraded () =
  let server = Server.create () in
  let wm = Wm.start ~resources server in
  let ctx = Wm.ctx wm in
  let app = Stock.xterm server () in
  ignore (Wm.step wm);
  let client = client_of wm app in
  ctx.Ctx.tier <- Ctx.Tier_essential;
  Client_app.set_name app "renamed";
  ignore (Wm.step wm);
  for _ = 1 to Governor.restore_calm_ticks do
    Governor.tick ctx
  done;
  check Alcotest.string "full service restored" "full" (Ctx.tier_name ctx.Ctx.tier);
  for _ = 1 to 10 do
    ignore (Wm.step wm)
  done;
  check Alcotest.string "wm_name read" "renamed" client.Ctx.wm_name;
  let title =
    Option.get (Swm_oi.Wobj.find_descendant (Option.get client.Ctx.deco) ~name:"name")
  in
  check Alcotest.string "title label" "renamed" (Swm_oi.Wobj.label title)

let test_supervisor_recovers_from_exception () =
  let server = Server.create () in
  Recorder.start (Server.recorder server);
  let sup = Supervisor.create ~resources server in
  let apps = Workload.launch_n server 6 in
  (match Supervisor.step sup with
  | Supervisor.Stepped _ -> ()
  | _ -> Alcotest.fail "expected a normal step");
  let sleeps = ref [] in
  Supervisor.set_sleep sup (fun ms -> sleeps := ms :: !sleeps);
  Supervisor.set_backoff sup ~base_ms:7 ~max_ms:100;
  (match Supervisor.step ~drive:(fun _ -> failwith "boom") sup with
  | Supervisor.Recovered { attempts; _ } ->
      check Alcotest.int "recovered on the first attempt" 1 attempts
  | _ -> Alcotest.fail "expected a recovery");
  check Alcotest.int "one restart" 1 (Supervisor.restarts sup);
  check Alcotest.(list int) "backoff slept once, base delay" [ 7 ] !sleeps;
  let wm2 = Supervisor.wm sup in
  ignore (Wm.step wm2);
  List.iter
    (fun app ->
      let win = Client_app.window app in
      if Server.window_exists server win && Wm.find_client wm2 win = None then
        Alcotest.failf "client %d not re-adopted" (Xid.to_int win))
    apps;
  check Alcotest.bool "recorder saw the recovery" true
    (List.exists
       (fun (e : Recorder.entry) -> e.kind = "supervisor")
       (Recorder.entries (Server.recorder server)))

let test_supervisor_watchdog_stall_recovery () =
  let server = Server.create () in
  Recorder.start (Server.recorder server);
  let sup = Supervisor.create ~resources server in
  let _apps = Workload.launch_n server 6 in
  (* Every dispatch now overruns the watchdog: the stall burst must turn
     into a supervised recovery, not a frozen WM. *)
  (Supervisor.wm sup).Ctx.watchdog_threshold_ns <- 0;
  (match Supervisor.step sup with
  | Supervisor.Recovered { reason; _ } ->
      check Alcotest.bool "reason names the watchdog" true
        (Astring_contains.contains reason "watchdog")
  | _ -> Alcotest.fail "expected a watchdog-triggered recovery");
  check Alcotest.bool "fresh WM has a sane threshold" true
    ((Supervisor.wm sup).Ctx.watchdog_threshold_ns > 0);
  check Alcotest.bool "supervisor still in service" true
    (not (Supervisor.gave_up sup));
  let entries = Recorder.entries (Server.recorder server) in
  check Alcotest.bool "stall recorded" true
    (List.exists (fun (e : Recorder.entry) -> e.kind = "stall") entries);
  check Alcotest.bool "recovery recorded" true
    (List.exists (fun (e : Recorder.entry) -> e.kind = "supervisor") entries)

let test_supervisor_gives_up () =
  let server = Server.create () in
  let sup = Supervisor.create ~resources server in
  Supervisor.set_max_restarts sup 0;
  (match Supervisor.recover sup ~reason:"test" with
  | Supervisor.Gave_up _ -> ()
  | _ -> Alcotest.fail "expected give-up with a zero restart budget");
  check Alcotest.bool "inert afterwards" true
    (match Supervisor.step sup with
    | Supervisor.Gave_up _ -> true
    | _ -> false);
  check Alcotest.int "give-up counted" 1
    (Metrics.counter_value (Server.metrics server) "supervisor.giveups")

let suite =
  [
    Alcotest.test_case "client dies mid-move" `Quick test_client_dies_mid_move;
    Alcotest.test_case "client dies while prompting" `Quick
      test_client_dies_while_prompting;
    Alcotest.test_case "zoom/stick on undecorated client" `Quick
      test_zoom_and_stick_on_undecorated;
    Alcotest.test_case "f.delete twice" `Quick test_delete_twice;
    Alcotest.test_case "missing decoration panel" `Quick test_missing_decoration_panel;
    Alcotest.test_case "decoration without client panel" `Quick
      test_decoration_without_client_panel;
    Alcotest.test_case "destroy while iconic" `Quick test_withdraw_while_iconic;
    Alcotest.test_case "ConfigureRequest while iconic" `Quick
      test_configure_request_while_iconic;
    Alcotest.test_case "unknown menu name" `Quick test_unknown_menu;
    Alcotest.test_case "bad window ids in functions" `Quick test_bad_window_id_function;
    Alcotest.test_case "double iconify/deiconify" `Quick test_iconify_iconified;
    Alcotest.test_case "reparent cycles rejected" `Quick test_reparent_cycle_rejected;
    Alcotest.test_case "no resources: default template" `Quick test_empty_resources;
    Alcotest.test_case "malformed bindings ignored" `Quick
      test_malformed_bindings_ignored;
    Alcotest.test_case "WM restart under load" `Quick test_wm_restart_under_load;
    Alcotest.test_case "backpressure bounds the queue" `Quick
      test_backpressure_bounds_queue;
    Alcotest.test_case "state-bearing events overrun, never shed" `Quick
      test_state_bearing_overruns_cap;
    Alcotest.test_case "health state machine with hysteresis" `Quick
      test_health_state_machine;
    Alcotest.test_case "flooder quarantined then evicted" `Quick
      test_flooder_quarantined_then_evicted;
    Alcotest.test_case "calm ticks count only while throttled" `Quick
      test_calm_counts_only_while_throttled;
    Alcotest.test_case "health thresholds are validated" `Quick
      test_health_thresholds_validated;
    QCheck_alcotest.to_alcotest prop_active_tick_matches_fold;
    Alcotest.test_case "tick visits independent of idle connections" `Quick
      test_tick_visits_independent_of_idle;
    Alcotest.test_case "a drained connection comes to rest" `Quick
      test_drained_conn_comes_to_rest;
    Alcotest.test_case "slow pressure still builds up" `Quick
      test_slow_pressure_still_builds_up;
    Alcotest.test_case "governor walks the tier ladder" `Quick
      test_governor_tier_ladder;
    Alcotest.test_case "degraded tier skips luxury work" `Quick
      test_degraded_tier_skips_luxury_work;
    Alcotest.test_case "a title changed while degraded is repainted" `Quick
      test_retitle_while_degraded;
    Alcotest.test_case "supervisor recovers from an escaped exception" `Quick
      test_supervisor_recovers_from_exception;
    Alcotest.test_case "watchdog stalls trigger supervised recovery" `Quick
      test_supervisor_watchdog_stall_recovery;
    Alcotest.test_case "supervisor gives up when the budget is spent" `Quick
      test_supervisor_gives_up;
  ]

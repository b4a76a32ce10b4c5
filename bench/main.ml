(* Benchmark harness: one Bechamel test (or family) per figure / evaluation
   claim / ablation in DESIGN.md's experiment index.  The paper's evaluation
   (§8) is qualitative, so each experiment prints the measured shape next to
   the paper's claim; EXPERIMENTS.md records the correspondence. *)

open Bechamel
open Toolkit

module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid
module Prop = Swm_xlib.Prop
module Event = Swm_xlib.Event
module Xrdb = Swm_xrdb.Xrdb
module Wm = Swm_core.Wm
module Ctx = Swm_core.Ctx
module Vdesk = Swm_core.Vdesk
module Panner = Swm_core.Panner
module Functions = Swm_core.Functions
module Bindings = Swm_core.Bindings
module Session = Swm_core.Session
module Icons = Swm_core.Icons
module Templates = Swm_core.Templates
module Config = Swm_core.Config
module Wobj = Swm_oi.Wobj
module Panel_spec = Swm_oi.Panel_spec
module Client_app = Swm_clients.Client_app
module Stock = Swm_clients.Stock
module Workload = Swm_clients.Workload
module Twm_like = Swm_baselines.Twm_like
module Gwm_like = Swm_baselines.Gwm_like
module Mlisp = Swm_baselines.Mlisp

module Metrics = Swm_xlib.Metrics
module Tracing = Swm_xlib.Tracing
module Wire = Swm_xlib.Wire
module Wire_conn = Swm_xlib.Wire_conn
module Fault = Swm_xlib.Fault
module Health = Swm_xlib.Health
module Supervisor = Swm_core.Supervisor
module Governor = Swm_core.Governor
module Recorder = Swm_xlib.Recorder
module Replay = Swm_xlib.Replay
module Profile = Swm_xlib.Profile

(* -------- runner -------- *)

type result = { rname : string; ns_per_run : float; r2 : float option }

(* --smoke: a tiny quota so CI can prove every fixture and measurement path
   works without paying for statistically meaningful numbers. *)
let smoke = ref false

let run_tests tests =
  let instances = Instance.[ monotonic_clock ] in
  let limit, quota = if !smoke then (50, 0.01) else (2000, 0.25) in
  let cfg =
    Benchmark.cfg ~limit ~quota:(Time.second quota) ~kde:None
      ~stabilize:false ()
  in
  List.concat_map
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let ols =
        Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
      in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.fold
        (fun name ols acc ->
          let ns =
            match Analyze.OLS.estimates ols with
            | Some (e :: _) -> e
            | Some [] | None -> nan
          in
          { rname = name; ns_per_run = ns; r2 = Analyze.OLS.r_square ols } :: acc)
        results [])
    tests

let pp_ns ppf ns =
  if Float.is_nan ns then Format.fprintf ppf "n/a"
  else if ns > 1e9 then Format.fprintf ppf "%.2f s" (ns /. 1e9)
  else if ns > 1e6 then Format.fprintf ppf "%.2f ms" (ns /. 1e6)
  else if ns > 1e3 then Format.fprintf ppf "%.2f us" (ns /. 1e3)
  else Format.fprintf ppf "%.0f ns" ns

let report ~experiment ~claim results =
  Format.printf "@.== %s@.   paper: %s@." experiment claim;
  List.iter
    (fun r ->
      Format.printf "   %-38s %10s%s@." r.rname
        (Format.asprintf "%a" pp_ns r.ns_per_run)
        (match r.r2 with
        | Some r2 when r2 < 0.9 -> Printf.sprintf "   (r2=%.2f)" r2
        | Some _ | None -> ""))
    (List.sort (fun a b -> compare a.rname b.rname) results);
  results

let find name results =
  match List.find_opt (fun r -> r.rname = name) results with
  | Some r -> r.ns_per_run
  | None -> nan

let verdict fmt = Format.printf ("   -> " ^^ fmt ^^ "@.")

(* -------- fixtures -------- *)

let quiet_resources = [ Templates.open_look; "swm*virtualDesktop: False\nswm*rootPanels:\n" ]

let fresh_wm ?(resources = quiet_resources) () =
  let server = Server.create () in
  let wm = Wm.start ~resources server in
  (server, wm)

(* Manage-and-unmanage one client end to end (launch, MapRequest, decorate,
   destroy, cleanup): the unit of WM work in eval1/eval6. *)
let manage_cycle_swm server wm spec =
  let app = Client_app.launch server spec in
  ignore (Wm.step wm);
  Client_app.destroy app;
  ignore (Wm.step wm)

(* Resource-DB queries and scans per manage cycle, counted on a fresh WM over
   a fixed number of cycles after one warm-up.  Both counts then repeat
   exactly; a single cycle could land on a memo reset. *)
let scan_cycles = 100

let resource_db_per_manage () =
  let server, wm = fresh_wm () in
  let db = Config.db (Wm.ctx wm).Ctx.cfg in
  let cycle i =
    manage_cycle_swm server wm
      (Client_app.spec ~instance:(Printf.sprintf "scan%d" i) ~class_:"Scan"
         ~us_position:true (Geom.rect 10 10 300 200))
  in
  cycle 0;
  let q0 = Xrdb.queries db and s0 = Xrdb.scans db in
  for i = 1 to scan_cycles do
    cycle i
  done;
  let per n = float_of_int n /. float_of_int scan_cycles in
  (per (Xrdb.queries db - q0), per (Xrdb.scans db - s0))

(* What realizing and unrealizing one OpenLook decoration costs, counted
   around the WM's manage and unmanage steps over a fixed number of cycles
   after one warm-up, so the counts repeat exactly: (WM requests in the
   manage step, WM requests in the unmanage step, panel layouts in the
   manage step).  The decoration's only panel with children is its root. *)
let realize_cycles = 100

let realize_per_cycle () =
  let server, wm = fresh_wm () in
  let tk = (Ctx.screen (Wm.ctx wm) 0).Ctx.tk in
  let requests f =
    let r0 = Server.request_count server in
    f ();
    Server.request_count server - r0
  in
  let cycle i =
    let app =
      Client_app.launch server
        (Client_app.spec ~instance:(Printf.sprintf "realize%d" i) ~class_:"Realize"
           ~us_position:true (Geom.rect 10 10 300 200))
    in
    let l0 = Wobj.layouts tk in
    let manage = requests (fun () -> ignore (Wm.step wm)) in
    let layouts = Wobj.layouts tk - l0 in
    Client_app.destroy app;
    (manage, requests (fun () -> ignore (Wm.step wm)), layouts)
  in
  ignore (cycle 0);
  let manage = ref 0 and unmanage = ref 0 and layouts = ref 0 in
  for i = 1 to realize_cycles do
    let m, u, l = cycle i in
    manage := !manage + m;
    unmanage := !unmanage + u;
    layouts := !layouts + l
  done;
  let per n = float_of_int n /. float_of_int realize_cycles in
  (per !manage, per !unmanage, per !layouts)

(* -------- F1/F2: decoration and root panel construction -------- *)

let bench_figures () =
  let server, wm = fresh_wm () in
  let ctx = Wm.ctx wm in
  let scr = Ctx.screen ctx 0 in
  let xterm_spec =
    Client_app.spec ~instance:"xterm" ~class_:"XTerm" ~us_position:true
      (Geom.rect 40 48 320 160)
  in
  let lookup n = Config.panel_definition ctx.Ctx.cfg ~screen:0 n in
  let results =
    run_tests
      [
        Test.make ~name:"fig1/decorate-openlook"
          (Staged.stage (fun () -> manage_cycle_swm server wm xterm_spec));
        Test.make ~name:"fig2/root-panel-build"
          (Staged.stage (fun () ->
               match
                 Panel_spec.build scr.Ctx.tk ~lookup ~kind:Wobj.Panel
                   ~name:"RootPanel"
               with
               | Ok panel ->
                   Wobj.realize panel ~parent_window:scr.Ctx.root
                     ~at:(Geom.point 8 8);
                   Wobj.unrealize panel
               | Error msg -> failwith msg));
      ]
  in
  ignore
    (report ~experiment:"F1/F2: object construction (Figures 1 and 2)"
       ~claim:
         "decorations and root panels are assembled at runtime from resource \
          definitions"
       results)

(* -------- F3: panner refresh -------- *)

(* N clients spread over the OpenLook desktop, panner on. *)
let panner_fixture n =
  let server = Server.create () in
  let wm = Wm.start ~resources:[ Templates.open_look; "swm*rootPanels:\n" ] server in
  let _apps =
    Workload.launch server { Workload.default_params with count = n; area = (3000, 2400) }
  in
  ignore (Wm.step wm);
  (server, Wm.ctx wm)

(* The frames of the current desktop that have a miniature, bottom to top. *)
let shown_frames server (ctx : Ctx.t) =
  let vdesk = Option.get (Ctx.screen ctx 0).Ctx.vdesk in
  List.filter
    (fun f ->
      match Xid.Tbl.find_opt ctx.Ctx.frames f with
      | Some c -> c.Ctx.state = Prop.Normal && not c.Ctx.sticky
      | None -> false)
    (Server.children_of server vdesk.Ctx.vwins.(vdesk.Ctx.current))

(* Raise the bottom-most shown frame: its miniature must go from the bottom
   of the panner to the top.  The WM's queue is drained, so repeated raises
   do not time the overload ladder of a full queue. *)
let raise_bottom server ctx =
  (match shown_frames server ctx with
  | frame :: _ -> Server.raise_window server ctx.Ctx.conn frame
  | [] -> ());
  ignore (Server.flush_batch ctx.Ctx.conn)

(* The client of the bottom-most shown frame.  The search runs bottom up
   and stops at the first shown frame, so it does not grow with N. *)
let bottom_client server (ctx : Ctx.t) =
  let vdesk = Option.get (Ctx.screen ctx 0).Ctx.vdesk in
  List.find_map
    (fun f ->
      match Xid.Tbl.find_opt ctx.Ctx.frames f with
      | Some c when c.Ctx.state = Prop.Normal && not c.Ctx.sticky -> Some c
      | Some _ | None -> None)
    (Server.children_of server vdesk.Ctx.vwins.(vdesk.Ctx.current))

(* The shown clients, bottom to top: [step_raise]'s rotation. *)
let shown_clients server (ctx : Ctx.t) =
  let order = Queue.create () in
  List.iter (fun f -> Queue.push (Xid.Tbl.find ctx.Ctx.frames f) order) (shown_frames server ctx);
  order

(* The WM's own path: f.raise the bottom shown client, then step, which
   ends with the step reconcile of what the raise damaged.  A raise sends
   the bottom client to the top, so the harness rotates [order] instead of
   searching the stacking order, and its own cost does not grow with N. *)
let step_raise (ctx : Ctx.t) order =
  if not (Queue.is_empty order) then begin
    let client = Queue.pop order in
    Functions.execute ctx
      (Functions.invocation ~client ~screen:0 ())
      [ { Bindings.fname = "f.raise"; farg = None } ];
    Queue.push client order
  end;
  ignore (Wm.step ctx)

(* Requests the panner refresh after [change] issues. *)
let refresh_requests server ctx change =
  change ();
  let r0 = Server.request_count server in
  Panner.refresh ctx ~screen:0;
  Server.request_count server - r0

let bench_panner () =
  let fixtures = List.map (fun n -> (n, panner_fixture n)) [ 5; 25; 100 ] in
  let step_fixtures = List.map (fun n -> (n, panner_fixture n)) [ 5; 25; 100 ] in
  let tests =
    List.concat_map
      (fun (n, (server, ctx)) ->
        let step_server, step_ctx = List.assoc n step_fixtures in
        let order = shown_clients step_server step_ctx in
        [
          Test.make
            ~name:(Printf.sprintf "fig3/panner-refresh-%03d" n)
            (Staged.stage (fun () -> Panner.refresh ctx ~screen:0));
          Test.make
            ~name:(Printf.sprintf "fig3/panner-raise-%03d" n)
            (Staged.stage (fun () ->
                 raise_bottom server ctx;
                 Panner.refresh ctx ~screen:0));
          Test.make
            ~name:(Printf.sprintf "fig3/panner-step-raise-%03d" n)
            (Staged.stage (fun () -> step_raise step_ctx order));
        ])
      fixtures
  in
  let results =
    report ~experiment:"F3: Virtual Desktop panner (Figure 3)"
      ~claim:"the panner shows a miniature of every window; refresh scales with N"
      (run_tests tests)
  in
  let t5 = find "fig3/panner-raise-005" results
  and t100 = find "fig3/panner-raise-100" results in
  verdict "raise+refresh(100 windows) / raise+refresh(5 windows) = %.1fx" (t100 /. t5);
  verdict
    "f.raise+step(100 windows) / f.raise+step(5 windows) = %.1fx (target <= 2x: \
     the step reconcile visits only the raised client)"
    (find "fig3/panner-step-raise-100" results /. find "fig3/panner-step-raise-005" results);
  let server, ctx = List.assoc 100 fixtures in
  verdict
    "requests per refresh after one raise (100 windows, %d miniatures): %d \
     (unchanged: %d; a rebuild issues 4N+3; timing-independent)"
    (Xid.Tbl.length ctx.Ctx.panner_minis)
    (refresh_requests server ctx (fun () -> raise_bottom server ctx))
    (refresh_requests server ctx ignore)

(* Requests per panner refresh on 100 clients, over a fixed sequence of
   [panner_rounds] rounds of each change, so the counts repeat exactly:
   (clients, miniatures, unchanged, raise, pan, move). *)
let panner_clients = 100
let panner_rounds = 20

let panner_requests () =
  let server, ctx = panner_fixture panner_clients in
  let per change =
    let total = ref 0 in
    for i = 1 to panner_rounds do
      total := !total + refresh_requests server ctx (fun () -> change i)
    done;
    float_of_int !total /. float_of_int panner_rounds
  in
  let unchanged = per ignore in
  let raise = per (fun _ -> raise_bottom server ctx) in
  let pan =
    per (fun i ->
        Vdesk.pan_to ctx ~screen:0
          (if i mod 2 = 0 then Geom.point 0 0 else Geom.point 1200 900))
  in
  let move =
    per (fun i ->
        let frame = List.hd (List.rev (shown_frames server ctx)) in
        let g = Server.geometry server frame in
        let d = if i mod 2 = 0 then -48 else 48 in
        Server.move_resize server ctx.Ctx.conn frame { g with x = g.x + d; y = g.y + d })
  in
  (panner_clients, Xid.Tbl.length ctx.Ctx.panner_minis, unchanged, raise, pan, move)

(* Frames and miniatures the panner examines per change on 100 clients, each
   change driven through the WM and followed by one [Wm.step], over the same
   fixed rounds: (unchanged, raise, pan, move). *)
let panner_frames () =
  let server, ctx = panner_fixture panner_clients in
  let examined () =
    Metrics.counter_value (Server.metrics server) "panner.frames_examined"
  in
  let run line = ignore (Functions.execute_string ctx (Functions.invocation ~screen:0 ()) line) in
  let per change =
    let e0 = examined () in
    for i = 1 to panner_rounds do
      change i;
      ignore (Wm.step ctx)
    done;
    float_of_int (examined () - e0) /. float_of_int panner_rounds
  in
  let unchanged = per ignore in
  let raise =
    per (fun _ ->
        Option.iter
          (fun client ->
            Functions.execute ctx
              (Functions.invocation ~client ~screen:0 ())
              [ { Bindings.fname = "f.raise"; farg = None } ])
          (bottom_client server ctx))
  in
  let pan = per (fun i -> run (if i mod 2 = 0 then "f.panTo(0,0)" else "f.panTo(1200,900)")) in
  let move =
    per (fun i ->
        (* The top shown client asks to move itself (a ConfigureRequest);
           requested positions are viewport-relative. *)
        let frame = List.hd (List.rev (shown_frames server ctx)) in
        let c = Xid.Tbl.find ctx.Ctx.frames frame in
        let g = Server.geometry server frame and o = Vdesk.offset ctx ~screen:0 in
        let d = if i mod 2 = 0 then -48 else 48 in
        Server.configure_window server (Server.owner_of server c.Ctx.cwin) c.Ctx.cwin
          { Event.no_changes with cx = Some (g.x - o.px + d); cy = Some (g.y - o.py + d) })
  in
  (unchanged, raise, pan, move)

(* -------- connection scaling: the governor's health tick -------- *)

(* A bare server with [governor_active] busy connections, each owning a
   window, beside [idle] idle ones (connected, no windows: legal X). *)
let governor_active = 8

let idle_fixture ~idle =
  let server = Server.create () in
  let busy =
    List.init governor_active (fun i ->
        let conn = Server.connect server ~name:(Printf.sprintf "busy%d" i) in
        ignore
          (Server.create_window server conn ~parent:(Server.root server ~screen:0)
             ~geom:(Geom.rect 0 0 10 10) ());
        conn)
  in
  for i = 1 to idle do
    ignore (Server.connect server ~name:(Printf.sprintf "idle%d" i))
  done;
  (server, busy)

(* -------- population scaling: manage + retire beside R residents -------- *)

(* [manage_churn]'s action beside [residents] resident clients, each owning
   an unmapped leader window as well as its managed window.  A cycle
   launches one client with default placement, steps the WM, retires the
   oldest client (window, then connection), steps again and runs one
   governor tick; the WM's own governor cadence is off, so every tick is
   one of these.  [read] lets every resident read its queue. *)
let population_fixture residents =
  let server, wm = fresh_wm () in
  (Wm.ctx wm).Ctx.governor_interval <- 1_000_000_000;
  let root = Server.root server ~screen:0 in
  let launch name =
    let app =
      Client_app.launch server
        (Client_app.spec ~instance:name ~class_:"Pop" (Geom.rect 0 0 300 200))
    in
    ignore
      (Server.create_window server (Client_app.conn app) ~parent:root
         ~geom:(Geom.rect 0 0 1 1) ());
    app
  in
  let live = Queue.create () in
  for i = 1 to residents do
    Queue.push (launch (Printf.sprintf "res%d" i)) live
  done;
  ignore (Wm.step wm);
  let serial = ref 0 in
  let cycle () =
    incr serial;
    let app = launch (Printf.sprintf "pop%d" !serial) in
    Queue.push app live;
    ignore (Wm.step wm);
    (* The newcomer reads what managing it sent, so a timing that skips
       [read] does not leave it in the health tick's active set. *)
    ignore (Client_app.process_events app);
    let victim = Queue.pop live in
    Client_app.destroy victim;
    Server.disconnect server (Client_app.conn victim);
    ignore (Wm.step wm);
    Governor.tick (Wm.ctx wm)
  in
  let read () = Queue.iter (fun app -> ignore (Client_app.process_events app)) live in
  (server, wm, cycle, read)

(* One governor tick ([max_queue_ratio] then [health_tick]) while each busy
   connection holds a queued event, so it never comes to rest; and one
   population cycle beside 50, 200 and 800 residents. *)
let bench_scale () =
  let tests =
    List.map
      (fun idle ->
        let server, busy = idle_fixture ~idle in
        List.iter (fun conn -> Server.flood_conn server conn ~burst:1) busy;
        Test.make
          ~name:(Printf.sprintf "scale/health-tick-idle-%d" idle)
          (Staged.stage (fun () ->
               ignore (Server.max_queue_ratio server);
               Server.health_tick server)))
      [ 0; 1_000; 10_000 ]
    @ List.map
        (fun residents ->
          let _, _, cycle, read = population_fixture residents in
          read ();
          Test.make
            ~name:(Printf.sprintf "scale/manage-retire-%d" residents)
            (Staged.stage cycle))
        [ 50; 200; 800 ]
  in
  let results =
    report ~experiment:"Connection scaling: the governor tick and the population"
      ~claim:
        "an idle connection costs the WM nothing (per-tick work is O(active)), and \
         managing and retiring a client costs the same beside 50 or 800 others"
      (run_tests tests)
  in
  verdict "tick beside 10,000 idle connections / beside none = %.2fx"
    (find "scale/health-tick-idle-10000" results /. find "scale/health-tick-idle-0" results);
  verdict "manage + retire beside 800 residents / beside 50 = %.2fx"
    (find "scale/manage-retire-800" results /. find "scale/manage-retire-50" results);
  results

(* Deterministic population counts: [population_cycles] cycles after
   [population_warmup], from an emptied resource-DB memo, so the counts
   repeat exactly: (entries examined per disconnect, minor words per
   cycle, connections examined per tick).  Only the cycle is measured, not
   the residents' reads.  The first tick finds every resident with its
   set-up events pending; once read, each must come to rest. *)
let population_warmup = 20
let population_cycles = 100
let population_small = 50
let population_large = 800
let population_disconnect_budget = 1.0
let population_words_budget = 2900.0

let population residents =
  let server, wm, cycle, read = population_fixture residents in
  (* A database write empties the memo, so both sizes start from the same
     memo state and refill it with the same keys. *)
  Xrdb.put (Config.db (Wm.ctx wm).Ctx.cfg) "swmbench.population" "1";
  for _ = 1 to population_warmup do
    cycle ();
    read ()
  done;
  let d0 = Server.disconnect_visits server and t0 = Server.tick_visits server in
  let words = ref 0.0 in
  for _ = 1 to population_cycles do
    let w0 = Gc.minor_words () in
    cycle ();
    words := !words +. (Gc.minor_words () -. w0);
    read ()
  done;
  let per n = float_of_int n /. float_of_int population_cycles in
  ( per (Server.disconnect_visits server - d0),
    !words /. float_of_int population_cycles,
    per (Server.tick_visits server - t0) )

(* What an event the WM reads and ignores costs, in minor words and
   clock reads per dispatched event: beside [dispatch_clients] managed
   clients whose queues are read, a sender sends [dispatch_per_round]
   ClientMessages a round to their frames (the WM owns each frame, so it
   receives them and its handler does nothing), then the WM steps.  The
   sending, queueing, reading, dispatch and the WM's own ticks are all
   counted, the ledger armed as it ships; the events themselves are built
   before the count. *)
let dispatch_clients = 50
let dispatch_per_round = 8
let dispatch_warmup = 10
let dispatch_rounds = 200
let dispatch_words_budget = 18.2
let dispatch_clock_reads_budget = 2.25

let ignored_event_costs () =
  let server, wm = fresh_wm () in
  let apps =
    List.init dispatch_clients (fun i ->
        Client_app.launch server
          (Client_app.spec ~instance:(Printf.sprintf "quiet%d" i) ~class_:"Quiet"
             (Geom.rect 0 0 300 200)))
  in
  ignore (Wm.step wm);
  List.iter (fun app -> ignore (Client_app.process_events app)) apps;
  let messages =
    Array.of_list
      (List.map
         (fun (c : Ctx.client) ->
           (c.frame, Event.Client_message { window = c.frame; name = "BENCH"; data = "" }))
         (Ctx.all_clients (Wm.ctx wm)))
  in
  let sender = Server.connect server ~name:"bench-sender" in
  let next = ref 0 in
  let round () =
    for _ = 1 to dispatch_per_round do
      let dest, event = messages.(!next mod Array.length messages) in
      incr next;
      Server.send_event server sender ~dest event
    done;
    ignore (Wm.step wm)
  in
  for _ = 1 to dispatch_warmup do
    round ()
  done;
  let dispatched () = Metrics.counter_value (Server.metrics server) "wm.events_dispatched" in
  let e0 = dispatched () and c0 = Metrics.clock_reads () and w0 = Gc.minor_words () in
  for _ = 1 to dispatch_rounds do
    round ()
  done;
  let words = Gc.minor_words () -. w0 and reads = Metrics.clock_reads () - c0 in
  let events = float_of_int (max 1 (dispatched () - e0)) in
  (words /. events, float_of_int reads /. events)

(* Connections a health tick examines, over a fixed sequence on a bare
   server so the count repeats exactly: [governor_ticks] rounds, each
   touching every busy connection (a flood, then a drain) before one
   governor tick, beside [governor_idle] idle connections.  The budget is
   the number of connections the sequence touches; a tick that folds over
   every connection reads more than [governor_idle]. *)
let governor_idle = 10_000
let governor_ticks = 100

let governor_visits () =
  let server, busy = idle_fixture ~idle:governor_idle in
  let v0 = Server.tick_visits server in
  for _ = 1 to governor_ticks do
    List.iter
      (fun conn ->
        Server.flood_conn server conn ~burst:4;
        ignore (Server.flush_batch conn))
      busy;
    ignore (Server.max_queue_ratio server);
    Server.health_tick server
  done;
  float_of_int (Server.tick_visits server - v0) /. float_of_int governor_ticks

(* -------- E1: toolkit-based swm vs direct twm vs interpreted gwm -------- *)

let bench_manage_comparison () =
  let spec_at i =
    Client_app.spec
      ~instance:(Printf.sprintf "bench%d" i)
      ~class_:"Bench" ~us_position:true
      (Geom.rect (10 + (i mod 7 * 30)) (10 + (i mod 5 * 40)) 300 200)
  in
  (* swm *)
  let server_swm, wm = fresh_wm () in
  let counter = ref 0 in
  (* twm-like *)
  let server_twm = Server.create () in
  let twm = Twm_like.start server_twm in
  (* gwm-like *)
  let server_gwm = Server.create () in
  let gwm =
    match Gwm_like.start server_gwm with Ok g -> g | Error msg -> failwith msg
  in
  let manage_cycle_direct server step destroyed_step spec =
    let app = Client_app.launch server spec in
    ignore (step ());
    Client_app.destroy app;
    ignore (destroyed_step ())
  in
  let results =
    report
      ~experiment:"E1: manage cost, toolkit WM vs direct-Xlib WM vs Lisp WM (paper §8)"
      ~claim:
        "a toolkit-based WM has somewhat slower performance than one written \
         directly on top of Xlib; the flexibility is worth the trade-off"
      (run_tests
         [
           Test.make ~name:"eval1/manage-swm"
             (Staged.stage (fun () ->
                  incr counter;
                  manage_cycle_swm server_swm wm (spec_at !counter)));
           Test.make ~name:"eval1/manage-twm"
             (Staged.stage (fun () ->
                  incr counter;
                  manage_cycle_direct server_twm
                    (fun () -> Twm_like.step twm)
                    (fun () -> Twm_like.step twm)
                    (spec_at !counter)));
           Test.make ~name:"eval1/manage-gwm"
             (Staged.stage (fun () ->
                  incr counter;
                  manage_cycle_direct server_gwm
                    (fun () -> Gwm_like.step gwm)
                    (fun () -> Gwm_like.step gwm)
                    (spec_at !counter)));
         ])
  in
  let swm_t = find "eval1/manage-swm" results
  and twm_t = find "eval1/manage-twm" results
  and gwm_t = find "eval1/manage-gwm" results in
  verdict "swm/twm = %.1fx (paper expects >1: toolkit overhead); gwm/twm = %.1fx"
    (swm_t /. twm_t) (gwm_t /. twm_t);
  (* Machine-independent overhead: protocol requests per manage cycle. *)
  let requests_per_cycle server run =
    let before = Server.request_count server in
    run ();
    Server.request_count server - before
  in
  incr counter;
  let swm_reqs =
    requests_per_cycle server_swm (fun () ->
        manage_cycle_swm server_swm wm (spec_at !counter))
  in
  incr counter;
  let twm_reqs =
    requests_per_cycle server_twm (fun () ->
        manage_cycle_direct server_twm
          (fun () -> Twm_like.step twm)
          (fun () -> Twm_like.step twm)
          (spec_at !counter))
  in
  incr counter;
  let gwm_reqs =
    requests_per_cycle server_gwm (fun () ->
        manage_cycle_direct server_gwm
          (fun () -> Gwm_like.step gwm)
          (fun () -> Gwm_like.step gwm)
          (spec_at !counter))
  in
  verdict
    "protocol requests per manage cycle: swm=%d twm=%d gwm=%d (swm/twm = %.1fx, \
     timing-independent)"
    swm_reqs twm_reqs gwm_reqs
    (float_of_int swm_reqs /. float_of_int (max 1 twm_reqs));
  let queries, scans = resource_db_per_manage () in
  verdict
    "resource-DB scans per manage cycle: swm=%.2f of %.1f queries (the memo \
     answers the rest; timing-independent)"
    scans queries

let bench_dispatch_comparison () =
  (* Click-to-raise round trip under each WM. *)
  let server_swm, wm = fresh_wm () in
  let app = Stock.xterm server_swm ~at:(Geom.point 100 100) () in
  ignore (Wm.step wm);
  let client = Option.get (Wm.find_client wm (Client_app.window app)) in
  let title =
    match client.Ctx.deco with
    | Some deco ->
        Wobj.window (Option.get (Wobj.find_descendant deco ~name:"name"))
    | None -> failwith "no deco"
  in
  let title_abs = Server.root_geometry server_swm title in
  Server.warp_pointer server_swm ~screen:0
    (Geom.point (title_abs.x + 2) (title_abs.y + 2));
  ignore (Wm.step wm);

  let server_twm = Server.create () in
  let twm = Twm_like.start server_twm in
  let app2 = Stock.xterm server_twm ~at:(Geom.point 100 100) () in
  ignore (Twm_like.step twm);
  let frame2 = Option.get (Twm_like.frame_of twm (Client_app.window app2)) in
  let f2 = Server.root_geometry server_twm frame2 in
  Server.warp_pointer server_twm ~screen:0 (Geom.point (f2.x + 5) (f2.y + 5));
  ignore (Twm_like.step twm);

  let server_gwm = Server.create () in
  let gwm = match Gwm_like.start server_gwm with Ok g -> g | Error m -> failwith m in
  let app3 = Stock.xterm server_gwm ~at:(Geom.point 100 100) () in
  ignore (Gwm_like.step gwm);
  let frame3 = Option.get (Gwm_like.frame_of gwm (Client_app.window app3)) in
  let f3 = Server.root_geometry server_gwm frame3 in
  Server.warp_pointer server_gwm ~screen:0 (Geom.point (f3.x + 5) (f3.y + 5));
  ignore (Gwm_like.step gwm);

  let results =
    report ~experiment:"E1b: event dispatch (title click -> f.raise)"
      ~claim:"binding lookup through objects and the resource DB vs hard-wired dispatch"
      (run_tests
         [
           Test.make ~name:"eval1/dispatch-swm"
             (Staged.stage (fun () ->
                  Server.press_button server_swm 2;
                  ignore (Wm.step wm)));
           Test.make ~name:"eval1/dispatch-twm"
             (Staged.stage (fun () ->
                  Server.press_button server_twm 1;
                  ignore (Twm_like.step twm)));
           Test.make ~name:"eval1/dispatch-gwm"
             (Staged.stage (fun () ->
                  Server.press_button server_gwm 1;
                  ignore (Gwm_like.step gwm)));
         ])
  in
  let s = find "eval1/dispatch-swm" results
  and t = find "eval1/dispatch-twm" results
  and g = find "eval1/dispatch-gwm" results in
  verdict "dispatch: swm/twm = %.1fx, gwm/twm = %.1fx" (s /. t) (g /. t)

(* -------- E2: resource database vs flat init file -------- *)

let bench_config () =
  let db = Xrdb.create () in
  (match Xrdb.load_string db Templates.open_look with
  | Ok _ -> ()
  | Error msg -> failwith msg);
  (* Pad with per-class entries like a heavily customised session. *)
  for i = 0 to 199 do
    Xrdb.put db
      (Printf.sprintf "swm*Class%d*decoration" i)
      (Printf.sprintf "panel%d" i)
  done;
  let twm_config =
    {|
BorderWidth 2
TitleHeight 20
NoTitle { XClock XBiff XLoad XEyes Clock }
Button1 = : title : f.raise
Button2 = : title : f.move
Button3 = : title : f.iconify
|}
  in
  let parsed_twm =
    match Twm_like.parse_twmrc twm_config with Ok c -> c | Error m -> failwith m
  in
  let names = [ "swm"; "color"; "screen0"; "xclock"; "xclock"; "decoration" ] in
  let classes = [ "Swm"; "Color"; "Screen"; "XClock"; "XClock"; "Decoration" ] in
  let results =
    report ~experiment:"E2: X resource database vs separate init file (paper §8)"
      ~claim:
        "twm's separate init file was its biggest mistake; the resource DB \
         costs a precedence search per lookup but unifies configuration"
      (run_tests
         [
           Test.make ~name:"eval2/xrdb-scan-221-entries"
             (Staged.stage (fun () -> ignore (Xrdb.scan db ~names ~classes)));
           Test.make ~name:"eval2/xrdb-query-221-entries"
             (Staged.stage (fun () -> ignore (Xrdb.query db ~names ~classes)));
           Test.make ~name:"eval2/twmrc-lookup"
             (Staged.stage (fun () ->
                  ignore (List.mem "XClock" parsed_twm.Twm_like.no_title)));
           Test.make ~name:"eval2/xrdb-load-template"
             (Staged.stage (fun () ->
                  let fresh = Xrdb.create () in
                  ignore (Xrdb.load_string fresh Templates.open_look)));
           Test.make ~name:"eval2/twmrc-parse"
             (Staged.stage (fun () -> ignore (Twm_like.parse_twmrc twm_config)));
         ])
  in
  let sc = find "eval2/xrdb-scan-221-entries" results
  and q = find "eval2/xrdb-query-221-entries" results
  and l = find "eval2/twmrc-lookup" results in
  verdict
    "per-lookup premium for generality: precedence scan %.0fx (%s), memoised \
     repeat %.0fx (%s)"
    (sc /. l)
    (Format.asprintf "%a" pp_ns sc)
    (q /. l)
    (Format.asprintf "%a" pp_ns q)

(* -------- E3: panning -------- *)

let bench_pan () =
  let mk n sticky_fraction =
    let server = Server.create () in
    let wm = Wm.start ~resources:[ Templates.open_look; "swm*rootPanels:\n" ] server in
    let ctx = Wm.ctx wm in
    let apps =
      Workload.launch server
        { Workload.default_params with count = n; area = (3000, 2200) }
    in
    ignore (Wm.step wm);
    List.iteri
      (fun i app ->
        if float_of_int i < sticky_fraction *. float_of_int n then
          match Wm.find_client wm (Client_app.window app) with
          | Some client -> Vdesk.set_sticky ctx client true
          | None -> ())
      apps;
    ctx
  in
  let flip = ref false in
  let pan ctx () =
    flip := not !flip;
    Vdesk.pan_to ctx ~screen:0 (if !flip then Geom.point 1200 900 else Geom.point 0 0)
  in
  let ctx10 = mk 10 0.0 and ctx100 = mk 100 0.0 and ctx400 = mk 400 0.0 in
  let ctx100s = mk 100 0.2 in
  let results =
    report ~experiment:"E3: Virtual Desktop panning (paper §6)"
      ~claim:
        "panning moves one desktop window; cost is independent of the number \
         of windows (no ConfigureNotify storm), sticky windows stay put"
      (run_tests
         [
           Test.make ~name:"eval3/pan-010" (Staged.stage (pan ctx10));
           Test.make ~name:"eval3/pan-100" (Staged.stage (pan ctx100));
           Test.make ~name:"eval3/pan-400" (Staged.stage (pan ctx400));
           Test.make ~name:"eval3/pan-100-sticky20pc" (Staged.stage (pan ctx100s));
         ])
  in
  let t10 = find "eval3/pan-010" results and t400 = find "eval3/pan-400" results in
  verdict "pan(400 windows) / pan(10 windows) = %.2fx (flat = the desktop wins)"
    (t400 /. t10)

(* -------- E4: session save / restart matching -------- *)

let bench_session () =
  let server = Server.create () in
  let wm = Wm.start ~resources:quiet_resources server in
  let ctx = Wm.ctx wm in
  let _apps = Workload.launch server { Workload.default_params with count = 50 } in
  ignore (Wm.step wm);
  let hints = Functions.places_hints ctx in
  let commands = List.map (fun h -> h.Session.command) hints in
  let results =
    report ~experiment:"E4: session management (paper §7)"
      ~claim:
        "f.places writes an .xinitrc replacement; on restart clients are \
         matched by WM_COMMAND and restored regardless of toolkit or host"
      (run_tests
         [
           Test.make ~name:"eval4/places-50-clients"
             (Staged.stage (fun () -> ignore (Functions.places_hints ctx)));
           Test.make ~name:"eval4/places-file-format"
             (Staged.stage (fun () ->
                  ignore
                    (Session.places_file ~display:":0" ~local_host:"localhost" hints)));
           Test.make ~name:"eval4/restart-match-50"
             (Staged.stage (fun () ->
                  let table = Session.create_table () in
                  List.iter (Session.add table) hints;
                  List.iter
                    (fun command ->
                      ignore (Session.take_match table ~command ~host:None))
                    commands));
         ])
  in
  ignore results

(* -------- E5: bindings -------- *)

let bench_bindings () =
  let src =
    String.concat " "
      (List.init 20 (fun i ->
           Printf.sprintf "<Btn%d> : f.raise f.lower f.warpVertical(%d)"
             ((i mod 5) + 1) i))
  in
  let parsed = Bindings.parse_exn src in
  let event =
    Event.Button_press
      {
        window = Xid.of_int 1;
        button = 3;
        mods = Swm_xlib.Keysym.no_mods;
        pos = Geom.point 0 0;
        root_pos = Geom.point 0 0;
      }
  in
  let results =
    report ~experiment:"E5: bindings (paper §4.2)"
      ~claim:"any number of bindings, any number of functions per binding"
      (run_tests
         [
           Test.make ~name:"eval5/parse-20-bindings"
             (Staged.stage (fun () -> ignore (Bindings.parse src)));
           Test.make ~name:"eval5/dispatch-lookup"
             (Staged.stage (fun () -> ignore (Bindings.lookup parsed event)));
         ])
  in
  ignore results

(* -------- E6: shaped decoration -------- *)

let bench_shape () =
  let server, wm = fresh_wm () in
  let counter = ref 0 in
  let round_spec () =
    incr counter;
    Client_app.spec
      ~instance:(Printf.sprintf "oclock%d" !counter)
      ~class_:"Clock" ~us_position:true (Geom.rect 60 60 120 120)
  in
  let manage_shaped () =
    let spec = round_spec () in
    let app = Client_app.launch server spec in
    Server.shape_set server (Client_app.conn app) (Client_app.window app)
      (Swm_xlib.Region.disc ~cx:60 ~cy:60 ~r:60);
    ignore (Wm.step wm);
    Client_app.destroy app;
    ignore (Wm.step wm)
  in
  let manage_plain () =
    let spec = round_spec () in
    manage_cycle_swm server wm spec
  in
  let results =
    report ~experiment:"E6: SHAPE support (paper §5)"
      ~claim:
        "shaped clients get shaped decorations selected through the 'shaped' \
         resource prefix (oclock/xeyes show no visible decoration)"
      (run_tests
         [
           Test.make ~name:"eval6/manage-shaped" (Staged.stage manage_shaped);
           Test.make ~name:"eval6/manage-plain" (Staged.stage manage_plain);
         ])
  in
  let s = find "eval6/manage-shaped" results and p = find "eval6/manage-plain" results in
  verdict
    "shaped/plain manage cost = %.2fx (the shapeit panel is bare: region \
     plumbing costs less than a full title bar)"
    (s /. p)

(* -------- E7: placement under pan -------- *)

let bench_placement () =
  let server = Server.create () in
  let wm = Wm.start ~resources:[ Templates.open_look; "swm*rootPanels:\nswm*panner: False\n" ] server in
  let ctx = Wm.ctx wm in
  Vdesk.pan_to ctx ~screen:0 (Geom.point 1000 1000);
  let counter = ref 0 in
  let cycle ~us ~p () =
    incr counter;
    let spec =
      Client_app.spec
        ~instance:(Printf.sprintf "place%d" !counter)
        ~us_position:us ~p_position:p (Geom.rect 100 100 80 80)
    in
    manage_cycle_swm server wm spec
  in
  let results =
    report ~experiment:"E7: USPosition vs PPosition on the desktop (paper §6.3.2)"
      ~claim:
        "USPosition is absolute on the desktop; PPosition is relative to the \
         visible viewport"
      (run_tests
         [
           Test.make ~name:"eval7/place-usposition"
             (Staged.stage (cycle ~us:true ~p:false));
           Test.make ~name:"eval7/place-pposition"
             (Staged.stage (cycle ~us:false ~p:true));
           Test.make ~name:"eval7/place-default"
             (Staged.stage (cycle ~us:false ~p:false));
         ])
  in
  ignore results

(* -------- A1: specific vs non-specific resources -------- *)

let bench_specific_lookup () =
  let mk extra_entries =
    let server = Server.create () in
    let db = Xrdb.create () in
    (match Xrdb.load_string db Templates.open_look with
    | Ok _ -> ()
    | Error m -> failwith m);
    for i = 0 to extra_entries - 1 do
      Xrdb.put db
        (Printf.sprintf "swm.color.screen0.Class%d.inst%d.decoration" i i)
        "x"
    done;
    Config.create db server
  in
  let cfg0 = mk 0 and cfg500 = mk 500 in
  let scope =
    { Config.instance = "xclock"; class_ = "XClock"; shaped = false; sticky = false }
  in
  (* The key [Config.query_client] builds for [scope]: the scans search
     for it directly, without the memo. *)
  let names = [ "swm"; "color"; "screen0"; "xclock"; "xclock"; "decoration" ]
  and classes = [ "Swm"; "Color"; "Screen"; "XClock"; "XClock"; "Decoration" ] in
  let results =
    report ~experiment:"A1 (ablation): specific-resource lookup cost (paper §3)"
      ~claim:
        "per-class/instance decoration selection is a database query, not a \
         code path; cost grows with the number of specific entries"
      (run_tests
         [
           Test.make ~name:"abl1/scan-base-template"
             (Staged.stage (fun () ->
                  ignore (Xrdb.scan (Config.db cfg0) ~names ~classes)));
           Test.make ~name:"abl1/scan-500-specific"
             (Staged.stage (fun () ->
                  ignore (Xrdb.scan (Config.db cfg500) ~names ~classes)));
           Test.make ~name:"abl1/lookup-base-template"
             (Staged.stage (fun () ->
                  ignore (Config.query_client cfg0 ~screen:0 scope "decoration")));
           Test.make ~name:"abl1/lookup-500-specific"
             (Staged.stage (fun () ->
                  ignore (Config.query_client cfg500 ~screen:0 scope "decoration")));
         ])
  in
  verdict
    "500 specific entries make the scan %.1fx dearer; a memoised repeat \
     costs %s either way"
    (find "abl1/scan-500-specific" results /. find "abl1/scan-base-template" results)
    (Format.asprintf "%a" pp_ns (find "abl1/lookup-500-specific" results))

(* -------- A2: multiple desktops -------- *)

let bench_multi_desktop () =
  let server = Server.create () in
  let wm =
    Wm.start
      ~resources:[ Templates.open_look; "swm*rootPanels:\nswm*desktops: 4\nswm*panner: False\n" ]
      server
  in
  let ctx = Wm.ctx wm in
  let _apps = Workload.launch server { Workload.default_params with count = 40 } in
  ignore (Wm.step wm);
  let current = ref 0 in
  let results =
    report ~experiment:"A2 (ablation): multiple Virtual Desktops (paper §6.3.1)"
      ~claim:
        "SWM_ROOT would also allow multiple Virtual Desktops (the paper's \
         'not sure how useful' aside)"
      (run_tests
         [
           Test.make ~name:"abl2/switch-desktop-40-clients"
             (Staged.stage (fun () ->
                  current := (!current + 1) mod 4;
                  Vdesk.switch_desktop ctx ~screen:0 !current;
                  (* Drain what the switch queued for the WM, as its event
                     loop would; undrained, the queue grows without bound
                     and the bench times the backlog. *)
                  ignore (Wm.step wm)));
         ])
  in
  ignore results

(* -------- A3: policy in Lisp vs policy in resources -------- *)

let bench_policy_cost () =
  let env = Mlisp.base_env () in
  (match
     Mlisp.eval_program env
       "(define (pick-action button) (if (= button 1) 'raise (if (= button 2) 'move 'iconify)))"
   with
  | Ok _ -> ()
  | Error m -> failwith m);
  let pick = match Mlisp.lookup env "pick-action" with Some f -> f | None -> failwith "?" in
  let bindings =
    Bindings.parse_exn "<Btn1> : f.raise <Btn2> : f.move <Btn3> : f.iconify"
  in
  let event button =
    Event.Button_press
      {
        window = Xid.of_int 1;
        button;
        mods = Swm_xlib.Keysym.no_mods;
        pos = Geom.point 0 0;
        root_pos = Geom.point 0 0;
      }
  in
  let button = ref 0 in
  let results =
    report ~experiment:"A3 (ablation): policy via Lisp (gwm) vs resources (swm)"
      ~claim:
        "gwm is policy-free but interprets Lisp per event; swm resolves a \
         parsed binding table"
      (run_tests
         [
           Test.make ~name:"abl3/lisp-policy-decision"
             (Staged.stage (fun () ->
                  button := (!button mod 3) + 1;
                  ignore (Mlisp.call env pick [ Mlisp.Int !button ])));
           Test.make ~name:"abl3/bindings-policy-decision"
             (Staged.stage (fun () ->
                  button := (!button mod 3) + 1;
                  ignore (Bindings.lookup bindings (event !button))));
         ])
  in
  let l = find "abl3/lisp-policy-decision" results
  and b = find "abl3/bindings-policy-decision" results in
  verdict "lisp/bindings per-decision = %.1fx" (l /. b)

(* -------- extensions: scrollbars, cpp preprocessing, holders -------- *)

let bench_extensions () =
  let server = Server.create () in
  let wm =
    Wm.start
      ~resources:
        [ Templates.open_look;
          "swm*rootPanels:\nswm*scrollbars: True\nswm*iconHolders: box\n" ]
      server
  in
  let ctx = Wm.ctx wm in
  let _apps = Workload.launch_n server 20 in
  ignore (Wm.step wm);
  let flip = ref false in
  let results =
    report ~experiment:"EXT: scrollbars / cpp / icon holders"
      ~claim:"the remaining §6 panning method and §3/§4.1.5 machinery"
      (run_tests
         [
           Test.make ~name:"ext/scrollbar-refresh"
             (Staged.stage (fun () ->
                  flip := not !flip;
                  Vdesk.pan_to ctx ~screen:0
                    (if !flip then Geom.point 900 700 else Geom.point 0 0);
                  Swm_core.Scrollbar.refresh ctx ~screen:0));
           Test.make ~name:"ext/cpp-load-template"
             (Staged.stage (fun () ->
                  let db = Xrdb.create () in
                  ignore
                    (Xrdb.load_string_cpp ~defines:[ ("COLOR", "1") ] db
                       Templates.open_look)));
           Test.make ~name:"ext/holder-relayout"
             (Staged.stage (fun () ->
                  match Icons.find_holder ctx ~screen:0 "box" with
                  | Some holder -> Icons.scroll_holder ctx holder 0
                  | None -> ()));
           (let req =
              Swm_xlib.Wire.Configure_window
                ( Xid.of_int 42,
                  { Event.no_changes with cx = Some 10; cy = Some 20;
                    cw = Some 300; ch = Some 200 } )
            in
            let bytes = Swm_xlib.Wire.encode_request req in
            Test.make ~name:"ext/wire-encode-decode"
              (Staged.stage (fun () ->
                   let b = Swm_xlib.Wire.encode_request req in
                   ignore (Swm_xlib.Wire.decode_request b ~pos:0);
                   ignore bytes)));
         ])
  in
  ignore results

(* -------- P1: the batched, coalescing event pipeline -------- *)

(* Event-count measurement behind the timing claim: the same motion storm
   through a coalescing queue and a naive one, checking the final state is
   identical and recording the delivery ratio.  This is deterministic, so
   it runs once (outside bechamel) and its numbers go into the JSON dump. *)
let measure_motion_ratio ~steps =
  let run ~coalesce =
    let server = Server.create () in
    let conn = Server.connect server ~name:"watcher" in
    Server.select_input server conn (Server.root server ~screen:0)
      [ Event.Pointer_motion_mask ];
    Server.set_coalesce conn coalesce;
    Workload.motion_storm server ~steps ();
    let events = Server.flush_batch conn in
    let final_motion =
      List.fold_left
        (fun acc e ->
          match e with
          | Event.Motion_notify { root_pos; _ } -> Some root_pos
          | _ -> acc)
        None events
    in
    (server, List.length events, final_motion, Server.pointer_pos server)
  in
  let _, naive_delivered, naive_final, naive_pos = run ~coalesce:false in
  let server, coal_delivered, coal_final, coal_pos = run ~coalesce:true in
  let state_match = naive_final = coal_final && naive_pos = coal_pos in
  let ratio = float_of_int naive_delivered /. float_of_int (max 1 coal_delivered) in
  (server, naive_delivered, coal_delivered, ratio, state_match)

(* The pan-storm fixture: 30 clients on a 3000x2400 desktop, each round ten
   pans and one WM step.  The tracer, the flight recorder and the profiler
   can be armed and the ledger disarmed: (server, one storm round). *)
let obs_pan_storm ?(traced = false) ?(recorder = false) ?(ledger = true)
    ?(profiled = false) () =
  let server = Server.create () in
  let wm =
    Wm.start ~resources:[ Templates.open_look; "swm*rootPanels:\n" ] server
  in
  let ctx = Wm.ctx wm in
  let _apps =
    Workload.launch server
      { Workload.default_params with count = 30; area = (3000, 2400) }
  in
  ignore (Wm.step wm);
  if traced then Tracing.start (Server.tracer server);
  if recorder then Swm_xlib.Recorder.start (Server.recorder server);
  if not ledger then Server.set_ledger server false;
  if profiled then Profile.start (Server.profiler server);
  let flip = ref false in
  ( server,
    fun () ->
      flip := not !flip;
      for i = 1 to 10 do
        Vdesk.pan_to ctx ~screen:0
          (if !flip then Geom.point (i * 100) (i * 80) else Geom.point 0 0)
      done;
      ignore (Wm.step wm) )

let bench_pipeline () =
  let storm_steps = 200 in
  (* Timing fixtures.  Each staged run generates the storm and drains it, so
     ns/run covers enqueue + compression + batched delivery. *)
  let mk_storm ~coalesce =
    let server = Server.create () in
    let conn = Server.connect server ~name:"watcher" in
    Server.select_input server conn (Server.root server ~screen:0)
      [ Event.Pointer_motion_mask ];
    Server.set_coalesce conn coalesce;
    fun () ->
      Workload.motion_storm server ~steps:storm_steps ();
      ignore (Server.flush_batch conn)
  in
  (* A hundred clients jiggling and damaging their windows while the WM
     drains through read_events_stamped. *)
  let mk_churn () =
    let server = Server.create () in
    let wm = Wm.start ~resources:quiet_resources server in
    let apps = Workload.launch_n server 100 in
    ignore (Wm.step wm);
    fun () ->
      Workload.configure_churn server ~rounds:1 apps;
      Workload.expose_storm server ~rounds:1 apps;
      List.iter (fun app -> ignore (Client_app.process_events app)) apps;
      ignore (Wm.step wm)
  in
  let batch_events =
    List.init 64 (fun i ->
        Event.Motion_notify
          {
            window = Xid.of_int 1;
            pos = Geom.point i i;
            root_pos = Geom.point i i;
          })
  in
  let batch_bytes = Wire.encode_batch batch_events in
  let results =
    report ~experiment:"P1: batched, coalescing event pipeline"
      ~claim:
        "X-style event compression at enqueue time collapses motion/configure/\
         expose storms; batched delivery amortises the per-event drain cost"
      (run_tests
         [
           Test.make ~name:"pipeline/motion_storm-coalesced"
             (Staged.stage (mk_storm ~coalesce:true));
           Test.make ~name:"pipeline/motion_storm-naive"
             (Staged.stage (mk_storm ~coalesce:false));
           (* A panning storm through the full WM: pans generate
              ConfigureNotify and Expose traffic the WM's own batched queue
              folds. *)
           Test.make ~name:"pipeline/pan_storm" (Staged.stage (snd (obs_pan_storm ())));
           Test.make ~name:"pipeline/churn-100-clients" (Staged.stage (mk_churn ()));
           Test.make ~name:"pipeline/batch-encode-64"
             (Staged.stage (fun () -> ignore (Wire.encode_batch batch_events)));
           Test.make ~name:"pipeline/batch-decode-64"
             (Staged.stage (fun () ->
                  ignore (Wire.decode_batch batch_bytes ~pos:0)));
         ])
  in
  let server, naive_delivered, coal_delivered, ratio, state_match =
    measure_motion_ratio ~steps:storm_steps
  in
  let m = Server.metrics server in
  verdict
    "motion storm of %d warps: naive delivers %d events, coalesced %d \
     (%.0fx fewer), final state %s"
    storm_steps naive_delivered coal_delivered ratio
    (if state_match then "identical" else "DIVERGED");
  verdict "coalesced-path counters: enqueued=%d coalesced=%d delivered=%d"
    (Metrics.counter_value m "events.enqueued")
    (Metrics.counter_value m "events.coalesced")
    (Metrics.counter_value m "events.delivered");
  (results, naive_delivered, coal_delivered, ratio, state_match, m)

(* Shared serialisation of a bechamel result list. *)
let add_results_json b results =
  Buffer.add_string b "  \"results\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf "    {\"name\": %S, \"ns_per_run\": %s, \"r2\": %s}%s\n"
           r.rname
           (if Float.is_nan r.ns_per_run then "null"
            else Printf.sprintf "%.2f" r.ns_per_run)
           (match r.r2 with
           | Some r2 when not (Float.is_nan r2) -> Printf.sprintf "%.4f" r2
           | Some _ | None -> "null")
           (if i = List.length results - 1 then "" else ",")))
    (List.sort (fun a b -> compare a.rname b.rname) results);
  Buffer.add_string b "  ],\n"

(* The gate: every artifact is written here, read back and held to
   {!Gate.breaches}; the run prints the breaches at its end and exits 1. *)
let breaches = ref []

let write_json ~path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Format.printf "   -> wrote %s@." path;
  let file = Filename.basename path in
  List.iter
    (fun line -> breaches := (file ^ ": " ^ line) :: !breaches)
    (Gate.breaches (In_channel.with_open_bin path In_channel.input_all))

(* Machine-readable dump for CI: bechamel numbers for the pipeline family
   plus the deterministic event-count evidence and the metrics registry. *)
let write_pipeline_json ~path
    (results, naive_delivered, coal_delivered, ratio, state_match, metrics) =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  add_results_json b results;
  Buffer.add_string b
    (Printf.sprintf
       "  \"motion_storm\": {\"naive_delivered\": %d, \"coalesced_delivered\": \
        %d, \"ratio\": %.1f, \"state_match\": %b},\n"
       naive_delivered coal_delivered ratio state_match);
  Buffer.add_string b
    (Printf.sprintf "  \"metrics\": %s\n" (Metrics.to_json metrics));
  Buffer.add_string b "}\n";
  write_json ~path (Buffer.contents b)

(* -------- R1: robustness — fault absorption and recovery -------- *)

(* Client-side stimulus in these fixtures may legally hit windows the
   injector just destroyed; that error belongs to the simulated client. *)
let client_absorb f =
  try f () with Server.Bad_window _ | Server.Bad_access _ -> ()

let bench_robustness () =
  (* Manage-churn-destroy one pair of clients per run under an always-on
     heavy fault plan: the unit of WM work with the injector firing. *)
  let mk_faulted_cycle () =
    let server = Server.create () in
    let wm = Wm.start ~resources:quiet_resources server in
    let ctx = Wm.ctx wm in
    let heavy =
      { (Fault.storm ~seed:11 ()) with Fault.p_destroy_window = 0.02;
        p_garble_property = 0.1; max_faults = 0 }
    in
    ignore (Server.arm_faults server ~protect:[ ctx.Ctx.conn ] heavy);
    let round = ref 0 in
    fun () ->
      incr round;
      let apps =
        try Workload.launch_n server 2
        with Server.Bad_window _ | Server.Bad_access _ -> []
      in
      ignore (Wm.step wm);
      client_absorb (fun () ->
          Workload.configure_churn server ~seed:!round ~rounds:1 apps);
      ignore (Wm.step wm);
      List.iter (fun app -> client_absorb (fun () -> Client_app.destroy app)) apps;
      ignore (Wm.step wm)
  in
  (* Crash-recovery latency: kill the WM and start a fresh instance that
     must re-adopt the surviving population. *)
  let mk_recovery () =
    let server = Server.create () in
    let wm = ref (Wm.start ~resources:quiet_resources server) in
    let _apps = Workload.launch_n server 15 in
    ignore (Wm.step !wm);
    fun () ->
      Wm.shutdown !wm;
      wm := Wm.start ~resources:quiet_resources server
  in
  (* Crash-safe persistence costs: atomic write and lenient read of a
     50-client places file. *)
  let places_content =
    let server = Server.create () in
    let wm = Wm.start ~resources:quiet_resources server in
    let _apps = Workload.launch_n server 50 in
    ignore (Wm.step wm);
    Session.places_file ~display:":0" ~local_host:"localhost"
      (Functions.places_hints (Wm.ctx wm))
  in
  let tmp = Filename.temp_file "swm_bench" ".places" in
  let results =
    report ~experiment:"R1: robustness — fault absorption and recovery"
      ~claim:
        "a racing client must cost the WM one absorbed error, not a crash; \
         restart re-adopts the session; persistence is atomic + checksummed"
      (run_tests
         [
           Test.make ~name:"robustness/manage-under-faults"
             (Staged.stage (mk_faulted_cycle ()));
           Test.make ~name:"robustness/recovery-restart-15"
             (Staged.stage (mk_recovery ()));
           Test.make ~name:"robustness/places-write-atomic-50"
             (Staged.stage (fun () ->
                  Recorder.write_atomic ~path:tmp places_content));
           Test.make ~name:"robustness/places-read-lenient-50"
             (Staged.stage (fun () ->
                  ignore (Session.read_places places_content)));
         ])
  in
  (if Sys.file_exists tmp then Sys.remove tmp);
  results

(* Deterministic evidence for the JSON artifact: a fixed storm under a
   heavy plan, counting faults injected and errors absorbed against wall
   time, plus a measured recovery (restart + re-adoption) latency. *)
let measure_robustness () =
  let server = Server.create () in
  let wm = ref (Wm.start ~resources:quiet_resources server) in
  let ctx = Wm.ctx !wm in
  let apps = Workload.launch_n server 12 in
  ignore (Wm.step !wm);
  let heavy =
    { (Fault.storm ~seed:4242 ()) with Fault.p_destroy_window = 0.05;
      p_kill_connection = 0.002; p_garble_property = 0.15;
      p_truncate_frame = 0.1; p_corrupt_frame = 0.1; max_faults = 0 }
  in
  let wc = Wire_conn.create server ~name:"wire-chaos" in
  let wroot = Wire_conn.root_id wc ~screen:0 in
  let fault = Server.arm_faults server ~protect:[ ctx.Ctx.conn ] heavy in
  let m = Server.metrics server in
  let rounds = if !smoke then 10 else 100 in
  (* The plan is hot enough to wipe a static population long before the
     storm ends (and a dry victim pool stops injecting), so each round
     replenishes the client herd like real sessions do. *)
  let apps = ref apps in
  Metrics.time_mono_ns m "bench.robustness_storm_ns" (fun () ->
      for round = 1 to rounds do
        (try apps := Workload.launch_n server 2 @ !apps
         with Server.Bad_window _ | Server.Bad_access _ -> ());
        apps :=
          List.filter
            (fun a -> Server.window_exists server (Client_app.window a))
            !apps;
        client_absorb (fun () ->
            Workload.motion_storm server ~seed:round ~steps:20 ());
        client_absorb (fun () ->
            Workload.configure_churn server ~seed:round ~rounds:1 !apps);
        client_absorb (fun () ->
            Workload.expose_storm server ~seed:round ~rounds:1 !apps);
        (* Wire-frame traffic so truncate/corrupt faults have a site. *)
        client_absorb (fun () ->
            let wid = Wire_conn.fresh_id wc in
            let batch =
              Wire.encode_request
                (Wire.Create_window
                   { wid; parent = wroot; geom = Geom.rect 5 5 40 40;
                     border = 0; override_redirect = false })
              ^ Wire.encode_request (Wire.Map_window wid)
            in
            ignore (Wire_conn.submit_bytes wc batch));
        ignore (Wm.step !wm)
      done);
  let storm_ns =
    Metrics.hist_sum (Metrics.histogram m "bench.robustness_storm_ns")
  in
  let injected = Fault.injected fault in
  let xerrors = Metrics.counter_value m "wm.xerrors" in
  let rejected = Metrics.counter_value m "wire.rejected_frames" in
  let faults_per_sec =
    float_of_int injected /. (float_of_int (max 1 storm_ns) /. 1e9)
  in
  Server.disarm_faults server;
  (* The plan above is hot enough that little of the herd outlives the
     storm; recovery latency is about re-adopting a live session, so
     repopulate before measuring it. *)
  let _repop = Workload.launch_n server 10 in
  ignore (Wm.step !wm);
  (* Recovery: median-ish single shot of kill + restart + re-adopt. *)
  let cycles = if !smoke then 3 else 20 in
  Metrics.time_mono_ns m "bench.recovery_ns" (fun () ->
      for _ = 1 to cycles do
        Wm.shutdown !wm;
        wm := Wm.start ~resources:quiet_resources server
      done);
  let recovery_ns =
    Metrics.hist_sum (Metrics.histogram m "bench.recovery_ns") / cycles
  in
  let survivors = List.length (Ctx.all_clients (Wm.ctx !wm)) in
  verdict
    "%d faults injected over %d storm rounds (%.0f absorbed/sec wall); %d X \
     errors absorbed, %d frames rejected; WM alive throughout"
    injected rounds faults_per_sec xerrors rejected;
  verdict "restart recovery: %.2f ms to re-adopt %d survivors"
    (float_of_int recovery_ns /. 1e6)
    survivors;
  (m, injected, xerrors, rejected, faults_per_sec, storm_ns, recovery_ns,
   survivors)

(* The overload acceptance scenario: a designated flooder storms a
   100-client session.  Backpressure must bound every queue at the cap with
   zero state-bearing sheds, the health loop must evict the flooder, and a
   supervised restart must re-adopt every surviving client.  All of it is
   measured and lands in BENCH_robustness.json next to its budgets. *)
type overload_evidence = {
  ov_clients : int;
  ov_cap : int;
  ov_max_depth : int;
  ov_overruns : int;
  ov_shed : int;
  ov_shed_state : int;
  ov_evicted : bool;
  ov_eviction_ns : int;
  ov_recovery_ns : int;
  ov_evict_to_readopt_ns : int;
  ov_survivors : int;
  ov_readopted : int;
  ov_tier_transitions : int;
}

let measure_overload () =
  let cap = 256 in
  let clients = 100 in
  let server = Server.create () in
  Server.set_queue_cap server cap;
  let sup = Supervisor.create ~resources:quiet_resources server in
  let m = Server.metrics server in
  (* Populate in chunks, stepping between them, so the WM's own queue is
     drained as the session grows (its events are state-bearing: a launch
     burst bigger than the cap would be an accounted overrun, and this
     scenario gates on the strict bound). *)
  let apps =
    List.concat_map
      (fun _ ->
        let chunk = Workload.launch_n server (clients / 4) in
        ignore (Supervisor.step sup);
        chunk)
      [ (); (); (); () ]
  in
  (* The flooder: enough windows that coalescing cannot absorb its storm,
     so backpressure and the health score see the full pressure. *)
  let flooder = Server.connect server ~name:"flooder" in
  let root = Server.root server ~screen:0 in
  for i = 1 to 2 * cap do
    ignore
      (Server.create_window server flooder ~parent:root
         ~geom:(Geom.rect 0 0 16 16) ());
    if i mod 128 = 0 then ignore (Supervisor.step sup)
  done;
  ignore (Supervisor.step sup);
  let t0 = Metrics.now_mono_ns () in
  let rounds = ref 0 in
  while Server.conn_health flooder <> Health.Evicted && !rounds < 200 do
    incr rounds;
    Server.flood_conn server flooder ~burst:4096;
    client_absorb (fun () ->
        Workload.motion_storm server ~seed:!rounds ~steps:10 ());
    ignore (Supervisor.step sup)
  done;
  let t_evicted = Metrics.now_mono_ns () in
  let evicted = Server.conn_health flooder = Health.Evicted in
  (* Snapshot the storm-phase queue evidence here: the restart below
     re-manages the whole session, a state-bearing burst on the WM's own
     connection that legitimately overruns the cap and would otherwise
     mask the flood-phase bound being gated. *)
  let storm_max_depth = Metrics.gauge_value m "queue.depth" in
  let storm_overruns = Metrics.counter_value m "queue.cap_overruns" in
  let storm_shed = Metrics.counter_value m "events.shed" in
  let storm_shed_state = Metrics.counter_value m "events.shed.state_bearing" in
  (* Supervised restart over the wreckage: save, tear down, restart,
     re-adopt. *)
  Metrics.time_mono_ns m "bench.supervised_recovery_ns" (fun () ->
      (match Supervisor.recover sup ~reason:"bench: forced recovery" with
      | Supervisor.Recovered _ -> ()
      | Supervisor.Stepped _ | Supervisor.Gave_up _ ->
          failwith "supervised recovery did not recover");
      ignore (Wm.step (Supervisor.wm sup)));
  let t_done = Metrics.now_mono_ns () in
  let wm2 = Supervisor.wm sup in
  let survivors =
    List.filter
      (fun a ->
        Server.window_exists server (Client_app.window a)
        && Server.is_mapped server (Client_app.window a))
      apps
  in
  let readopted =
    List.length
      (List.filter
         (fun a -> Wm.find_client wm2 (Client_app.window a) <> None)
         survivors)
  in
  let ev =
    {
      ov_clients = clients;
      ov_cap = cap;
      ov_max_depth = storm_max_depth;
      ov_overruns = storm_overruns;
      ov_shed = storm_shed;
      ov_shed_state = storm_shed_state;
      ov_evicted = evicted;
      ov_eviction_ns = t_evicted - t0;
      ov_recovery_ns =
        Metrics.hist_sum (Metrics.histogram m "bench.supervised_recovery_ns");
      ov_evict_to_readopt_ns = t_done - t_evicted;
      ov_survivors = List.length survivors;
      ov_readopted = readopted;
      ov_tier_transitions = Metrics.counter_value m "governor.transitions";
    }
  in
  verdict
    "overload: %d-client session flooded; max queue depth %d (cap %d), %d \
     shed, %d state-bearing shed, flooder evicted after %.2f ms"
    ev.ov_clients ev.ov_max_depth ev.ov_cap ev.ov_shed ev.ov_shed_state
    (float_of_int ev.ov_eviction_ns /. 1e6);
  verdict
    "supervised recovery: %.2f ms restart; %d/%d survivors re-adopted \
     (%.2f ms eviction-to-readoption)"
    (float_of_int ev.ov_recovery_ns /. 1e6)
    ev.ov_readopted ev.ov_survivors
    (float_of_int ev.ov_evict_to_readopt_ns /. 1e6);
  ev

let write_robustness_json ~path results
    (metrics, injected, xerrors, rejected, faults_per_sec, storm_ns,
     recovery_ns, survivors) ov =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  add_results_json b results;
  Buffer.add_string b
    (Printf.sprintf
       "  \"fault_storm\": {\"injected\": %d, \"xerrors_absorbed\": %d, \
        \"frames_rejected\": %d, \"faults_absorbed_per_sec\": %.1f, \
        \"storm_wall_ns\": %d},\n"
       injected xerrors rejected faults_per_sec storm_ns);
  Buffer.add_string b
    (Printf.sprintf
       "  \"recovery\": {\"restart_ns\": %d, \"survivors_readopted\": %d},\n"
       recovery_ns survivors);
  (* The overload budgets, as counts where the property is not a bound:
     queue depth at most the cap plus the accounted state-bearing
     overruns, no state-bearing event shed, no flooder left connected,
     every client re-adopted, and the recovery latencies inside their
     budgets. *)
  Buffer.add_string b
    (Printf.sprintf
       "  \"overload\": {\"clients\": %d, \"queue_cap\": %d, \
        \"max_queue_depth\": %d, \"max_queue_depth_budget\": %d, \
        \"cap_overruns\": %d, \"events_shed\": %d, \
        \"state_bearing_shed\": %d, \"state_bearing_shed_budget\": 0, \
        \"flooders_left\": %d, \"flooders_left_budget\": 0, \
        \"eviction_ns\": %d, \"recovery_ns\": %d, \
        \"recovery_ns_budget\": 500000000, \"evict_to_readopt_ns\": %d, \
        \"evict_to_readopt_ns_budget\": 2000000000, \"survivors\": %d, \
        \"readopted\": %d, \"readopt_shortfall\": %d, \
        \"readopt_shortfall_budget\": 0, \"tier_transitions\": %d},\n"
       ov.ov_clients ov.ov_cap ov.ov_max_depth (ov.ov_cap + ov.ov_overruns)
       ov.ov_overruns ov.ov_shed ov.ov_shed_state
       (if ov.ov_evicted then 0 else 1)
       ov.ov_eviction_ns ov.ov_recovery_ns ov.ov_evict_to_readopt_ns
       ov.ov_survivors ov.ov_readopted (ov.ov_clients - ov.ov_readopted)
       ov.ov_tier_transitions);
  Buffer.add_string b
    (Printf.sprintf "  \"metrics\": %s\n" (Metrics.to_json metrics));
  Buffer.add_string b "}\n";
  write_json ~path (Buffer.contents b)

(* -------- O1: observability — span tracing across the request path -------- *)

(* What arming the recorder, the ledger and the profiler costs, counted
   rather than timed, over [obs_rounds] storm rounds after [obs_warmup]:
   minor words per dispatched event, recorder entries per event, and spans
   folded into the profile tree per event.  All three repeat exactly from
   run to run, so the gates on them cannot flap on noise. *)
let obs_warmup = 10
let obs_rounds = 100
let recorder_words_budget = 14000.0
let recorder_off_words_budget = 1028.3
let recorder_total_words_budget = 9602.8
let recorder_entries_budget = 11.5
let ledger_words_budget = 2.0
let profiler_words_budget = 2322.0
let profiler_spans_budget = 14.5

let rec frames_count frames =
  List.fold_left
    (fun n (f : Profile.frame) -> n + f.count + frames_count f.children)
    0 frames

let obs_costs ?recorder ?ledger ?profiled () =
  let server, round = obs_pan_storm ?recorder ?ledger ?profiled () in
  for _ = 1 to obs_warmup do
    round ()
  done;
  let dispatched () = Metrics.counter_value (Server.metrics server) "wm.events_dispatched" in
  let rec_ = Server.recorder server and profiler = Server.profiler server in
  let s0 = frames_count (Profile.roots profiler) in
  let e0 = dispatched () and r0 = Recorder.recorded rec_ and w0 = Gc.minor_words () in
  for _ = 1 to obs_rounds do
    round ()
  done;
  let words = Gc.minor_words () -. w0 in
  let events = float_of_int (max 1 (dispatched () - e0)) in
  let spans = frames_count (Profile.roots profiler) - s0 in
  ( words /. events,
    float_of_int (Recorder.recorded rec_ - r0) /. events,
    float_of_int spans /. events )

let bench_observability () =
  let off_tracer = Tracing.create () in
  let on_tracer = Tracing.create () in
  Tracing.start on_tracer;
  let off_recorder = Swm_xlib.Recorder.create () in
  let on_recorder = Swm_xlib.Recorder.create () in
  Swm_xlib.Recorder.start on_recorder;
  let results =
    report ~experiment:"O1: span tracing + flight recorder (observability)"
      ~claim:
        "a disabled span or record is one flag check (no allocation, no \
         clock read); enabled tracing and recording write into bounded \
         rings so they can stay on"
      (run_tests
         [
           Test.make ~name:"observability/span-disabled"
             (Staged.stage (fun () -> Tracing.span off_tracer "bench" (fun () -> ())));
           Test.make ~name:"observability/span-enabled"
             (Staged.stage (fun () -> Tracing.span on_tracer "bench" (fun () -> ())));
           Test.make ~name:"observability/instant-enabled"
             (Staged.stage (fun () -> Tracing.instant on_tracer "tick"));
           Test.make ~name:"observability/record-disabled"
             (Staged.stage (fun () ->
                  Swm_xlib.Recorder.record off_recorder ~kind:"event" "bench"));
           Test.make ~name:"observability/record-enabled"
             (Staged.stage (fun () ->
                  Swm_xlib.Recorder.record on_recorder ~kind:"event" "bench"));
           (* The pan storm once with the tracer left disabled (the
              shipping default — this is the overhead the guards cost
              everyone) and once recording (the cost of turning tracing
              on). *)
           Test.make ~name:"observability/pan_storm-traced-off"
             (Staged.stage (snd (obs_pan_storm ())));
           Test.make ~name:"observability/pan_storm-traced-on"
             (Staged.stage (snd (obs_pan_storm ~traced:true ())));
           (* The CI-gated number: the same storm with the flight recorder
              armed (ring writes + periodic snapshots), against the
              recorder-off fixture above. *)
           Test.make ~name:"observability/recorder-overhead"
             (Staged.stage (snd (obs_pan_storm ~recorder:true ())));
           (* The lifecycle ledger ships armed, so the default storm above
              already pays its cost; this fixture disarms it for the
              baseline the CI ledger gate divides by. *)
           Test.make ~name:"observability/pan_storm-ledger-off"
             (Staged.stage (snd (obs_pan_storm ~ledger:false ())));
           (* By now the enabled ring has wrapped: exports pay full price. *)
           Test.make ~name:"observability/chrome-export-full-ring"
             (Staged.stage (fun () -> ignore (Tracing.to_chrome_json on_tracer)));
         ])
  in
  let off = find "observability/pan_storm-traced-off" results
  and on = find "observability/pan_storm-traced-on" results
  and recorded = find "observability/recorder-overhead" results in
  verdict
    "pan storm traced-on/traced-off = %.2fx, recorder-armed/off = %.2fx; \
     disabled span costs %s, disabled record %s (ring holds %d events, %d \
     dropped)"
    (on /. off) (recorded /. off)
    (Format.asprintf "%a" pp_ns (find "observability/span-disabled" results))
    (Format.asprintf "%a" pp_ns (find "observability/record-disabled" results))
    (List.length (Tracing.events on_tracer))
    (Tracing.dropped on_tracer);
  results

(* -------- SLO: end-to-end event latency per class, per load regime ---- *)

(* Run one scripted regime against a live WM and harvest the per-class
   event.e2e_ns histograms the dispatch loop fills from ingress stamps.
   The latencies are reported, not budgeted: they are wall time, and the
   overload regime's counts are gated in BENCH_robustness.json. *)
let measure_slo () =
  let regime name =
    let server = Server.create () in
    let wm =
      Wm.start ~resources:[ Templates.open_look; "swm*rootPanels:\n" ] server
    in
    let ctx = Wm.ctx wm in
    let apps = Workload.launch_n server 8 in
    ignore (Wm.step wm);
    (match name with
    | "quiet" ->
        (* A human pottering: a pan and a step at a time, queues near
           empty, residency dominated by the dispatch itself. *)
        for i = 1 to 20 do
          Vdesk.pan_to ctx ~screen:0 (Geom.point (i * 40 mod 800) (i * 30 mod 600));
          ignore (Wm.step wm)
        done
    | "storm" ->
        (* Motion + expose storms with pan sweeps, drained per round:
           coalescing holds the queue short but events do wait. *)
        for round = 1 to 6 do
          Workload.motion_storm server ~seed:(41 + round) ~steps:200 ();
          Workload.expose_storm server ~seed:(41 + round) ~rounds:2 apps;
          for i = 1 to 10 do
            Vdesk.pan_to ctx ~screen:0 (Geom.point (i * 100) (i * 80))
          done;
          ignore (Wm.step wm)
        done
    | _ ->
        (* Overload: whole storm batteries land between drains, so queue
           residency — not dispatch cost — dominates the tail. *)
        for round = 1 to 4 do
          Workload.motion_storm server ~seed:(67 + round) ~steps:2000 ();
          Workload.expose_storm server ~seed:(67 + round) ~rounds:6 apps;
          Workload.configure_churn server ~seed:(67 + round) ~rounds:4 apps;
          ignore (Wm.step wm)
        done);
    let m = Server.metrics server in
    let fam = Metrics.histogram_family m ~key:"event" "event.e2e_ns" in
    let classes =
      List.sort_uniq compare
        (List.init (Event.last_event + 1) Event.name_of_code)
    in
    let per_class =
      List.filter_map
        (fun cls ->
          let h = Metrics.labeled_histogram fam cls in
          if Metrics.hist_count h = 0 then None
          else
            Some
              (Printf.sprintf
                 "\"%s\": {\"count\": %d, \"p50_ns\": %.0f, \"p99_ns\": %.0f, \
                  \"p999_ns\": %.0f}"
                 cls (Metrics.hist_count h) (Metrics.hist_quantile h 0.5)
                 (Metrics.hist_quantile h 0.99)
                 (Metrics.hist_quantile h 0.999)))
        classes
    in
    Wm.shutdown wm;
    Printf.sprintf "    \"%s\": {%s}" name (String.concat ", " per_class)
  in
  Printf.sprintf "{\n%s\n  }"
    (String.concat ",\n" (List.map regime [ "quiet"; "storm"; "overload" ]))

(* Minor words one disabled [Tracing.span] allocates, averaged over enough
   calls that one stray word per call reads 1.0.  It must be 0: the
   disabled path is a flag check. *)
let span_disabled_words () =
  let tracer = Tracing.create () and calls = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    Tracing.span tracer "bench" (fun () -> ())
  done;
  (Gc.minor_words () -. w0) /. float_of_int calls

let write_observability_json ~path results ~pipeline_pan_ns ~slo =
  let off = find "observability/pan_storm-traced-off" results
  and on = find "observability/pan_storm-traced-on" results
  and span_disabled = find "observability/span-disabled" results
  and span_enabled = find "observability/span-enabled" results in
  let num v = if Float.is_nan v then "null" else Printf.sprintf "%.2f" v in
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  add_results_json b results;
  (* The tracing-off cost is gated as a count, the minor words a disabled
     span allocates (budget 0), and as wall time against a budget generous
     against runner noise.  disabled_vs_pipeline_ratio is reported, not
     gated: both of its storms are built by [obs_pan_storm], so only noise
     moves it. *)
  Buffer.add_string b
    (Printf.sprintf
       "  \"overhead\": {\"span_disabled_ns\": %s, \
        \"span_disabled_ns_budget\": 100.0, \"span_enabled_ns\": %s, \
        \"span_disabled_words\": %.3f, \"span_disabled_words_budget\": 0.0, \
        \"pan_storm_traced_off_ns\": %s, \"pan_storm_traced_on_ns\": %s, \
        \"traced_on_ratio\": %s, \"disabled_vs_pipeline_ratio\": %s},\n"
       (num span_disabled) (num span_enabled) (span_disabled_words ()) (num off)
       (num on) (num (on /. off))
       (num (off /. pipeline_pan_ns)));
  (* The recorder and ledger budgets are counts over a fixed storm: what
     arming adds in minor words per dispatched event, and recorder entries
     per event (11: the event itself and the round's ten pans; a storm
     round dispatches about one event).  What arming adds is armed minus
     off, so it rises whenever the off storm gets cheaper; the storm's own
     words per event, off and armed, are gated beside it, 10% over their
     measurements.  The recorder's difference budget carries ~2x
     headroom; the ledger's, over a measured 0 (its fate slots are
     written in place), 2 words.  Entries are an exact count, so their
     budget is half an entry over it.  The wall-clock
     armed/off ratios are reported, not gated: on a shared host they
     spread from 0.6 to 4 between runs of the same tree.  A disabled record
     must stay a flag check (budget generous against runner noise). *)
  let words_off, _, _ = obs_costs () in
  let words_rec, entries_rec, _ = obs_costs ~recorder:true () in
  let words_ledger_off, _, _ = obs_costs ~ledger:false () in
  let record_disabled = find "observability/record-disabled" results
  and record_enabled = find "observability/record-enabled" results
  and recorder_on = find "observability/recorder-overhead" results in
  Buffer.add_string b
    (Printf.sprintf
       "  \"recorder\": {\"record_disabled_ns\": %s, \
        \"record_enabled_ns\": %s, \"pan_storm_recorder_off_ns\": %s, \
        \"pan_storm_recorder_on_ns\": %s, \"armed_ratio\": %s, \
        \"record_disabled_ns_budget\": 50.0, \"storm_rounds\": %d, \
        \"armed_words_per_event\": %.1f, \"armed_words_per_event_budget\": %.1f, \
        \"off_words_per_event\": %.1f, \"off_words_per_event_budget\": %.1f, \
        \"armed_total_words_per_event\": %.1f, \
        \"armed_total_words_per_event_budget\": %.1f, \
        \"entries_per_event\": %.3f, \"entries_per_event_budget\": %.1f},\n"
       (num record_disabled) (num record_enabled) (num off) (num recorder_on)
       (num (recorder_on /. off)) obs_rounds (words_rec -. words_off)
       recorder_words_budget words_off recorder_off_words_budget words_rec
       recorder_total_words_budget entries_rec recorder_entries_budget);
  (* The ledger ships armed, so the default storm pays its cost; the
     ledger-off storm is the baseline. *)
  let ledger_off = find "observability/pan_storm-ledger-off" results in
  Buffer.add_string b
    (Printf.sprintf
       "  \"ledger\": {\"pan_storm_ledger_off_ns\": %s, \
        \"pan_storm_ledger_on_ns\": %s, \"armed_ratio\": %s, \
        \"storm_rounds\": %d, \"armed_words_per_event\": %.1f, \
        \"armed_words_per_event_budget\": %.1f},\n"
       (num ledger_off) (num off)
       (num (off /. ledger_off)) obs_rounds (words_off -. words_ledger_off)
       ledger_words_budget);
  (* The per-class end-to-end latency SLOs, measured from live regimes. *)
  Buffer.add_string b (Printf.sprintf "  \"slo\": %s\n" slo);
  Buffer.add_string b "}\n";
  write_json ~path (Buffer.contents b)

(* The acceptance artifact: a traced scripted session (pan storm + iconify
   burst over swmcmd) exported as Chrome trace-event JSON for Perfetto. *)
let write_sample_trace ~path =
  let server = Server.create () in
  let wm = Wm.start ~resources:[ Templates.open_look ] server in
  let _xterm = Stock.xterm server ~at:(Geom.point 60 80) () in
  let _xclock = Stock.xclock server ~at:(Geom.point 600 60) () in
  ignore (Wm.step wm);
  Tracing.start (Server.tracer server);
  let sender = Server.connect server ~name:"bench-swmcmd" in
  let send line =
    Swm_core.Swmcmd.send server sender ~screen:0 line;
    ignore (Wm.step wm)
  in
  for i = 1 to 10 do
    send (Printf.sprintf "f.panTo(%d,%d)" (i * 120) (i * 80))
  done;
  for _ = 1 to 3 do
    send "f.iconify(XTerm)";
    send "f.deiconify(XTerm)"
  done;
  Tracing.stop (Server.tracer server);
  write_json ~path (Tracing.to_chrome_json (Server.tracer server));
  verdict "sample trace: %d events" (List.length (Tracing.events (Server.tracer server)))

(* -------- R2: replay — crash reports as executable repros -------- *)

(* Record one small session the way the replay suite and corpus generator
   do — storms plus swmcmd iconify churn against a recorder-armed server —
   and parse the dump back into a replayable report. *)
let record_replay_report ~clients ~rounds ~seed =
  let server = Server.create () in
  let wm = Wm.start ~resources:quiet_resources server in
  let recorder = Server.recorder server in
  Recorder.start recorder;
  let ctx = Wm.ctx wm in
  let apps = Workload.launch_n server clients in
  ignore (Wm.step wm);
  let sender = Server.connect server ~name:"cmd" in
  for round = 0 to rounds - 1 do
    let sub = (seed * 31) + round in
    client_absorb (fun () -> Workload.motion_storm server ~seed:sub ~steps:10 ());
    ignore (Wm.step wm);
    client_absorb (fun () ->
        Workload.configure_churn server ~seed:sub ~rounds:1 apps);
    ignore (Wm.step wm);
    List.iteri
      (fun i (c : Ctx.client) ->
        let verb = if (i + round) mod 3 = 0 then "f.iconify" else "f.deiconify" in
        client_absorb (fun () ->
            Swm_core.Swmcmd.send server sender ~screen:0
              (Printf.sprintf "%s(#%d)" verb (Xid.to_int c.Ctx.cwin))))
      (Ctx.all_clients ctx);
    ignore (Wm.step wm)
  done;
  let text =
    Recorder.dump_json recorder ~reason:"bench recording"
      ~metrics:(Server.metrics server) ~tracer:(Server.tracer server)
  in
  match Replay.parse_report text with
  | Ok report -> report
  | Error msg -> failwith ("bench: cannot parse own recording: " ^ msg)

let bench_replay rep =
  let repro_text = Replay.repro_json rep in
  report
    ~experiment:"R2: replay — crash reports as executable repros"
    ~claim:
      "a recorded journal re-executes against a fresh Server+WM pair and \
       converges on the recorded snapshot; failing streams ddmin to \
       minimal repros"
    (run_tests
       [
         Test.make ~name:"replay/parse-report"
           (Staged.stage (fun () -> ignore (Replay.parse_report repro_text)));
         Test.make ~name:"replay/converge-small"
           (Staged.stage (fun () -> ignore (Wm.replay rep)));
       ])

(* Deterministic evidence for the JSON artifact: replays/sec of the small
   recorded session, and the minimizer's work on a poisoned copy (oracle
   calls, final length). *)
let measure_replay rep =
  let ops_count = List.length rep.Replay.ops in
  let m = Metrics.create () in
  let replays = if !smoke then 5 else 50 in
  let converged = ref 0 in
  Metrics.time_mono_ns m "bench.replay_ns" (fun () ->
      for _ = 1 to replays do
        match Wm.replay rep with
        | Replay.Converged _ -> incr converged
        | _ -> ()
      done);
  let wall_ns = Metrics.hist_sum (Metrics.histogram m "bench.replay_ns") in
  let replays_per_sec =
    float_of_int replays /. (float_of_int (max 1 wall_ns) /. 1e9)
  in
  (* Poison the stream with an op no replay absorbs (destroying a root
     raises Invalid_argument) and let ddmin isolate it, oracle matched on
     the failure signature as the chaos auto-minimizer does. *)
  let root = Xid.to_int (Server.root (Server.create ()) ~screen:0) in
  let poison = Printf.sprintf "destroy %d" root in
  let rec inject i = function
    | [] -> [ poison ]
    | op :: rest ->
        if i = 0 then poison :: op :: rest else op :: inject (i - 1) rest
  in
  let poisoned = inject (ops_count / 2) rep.Replay.ops in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  let fails ops =
    let probe = { rep with Replay.ops; snap = None; expect = Replay.No_crash } in
    match Wm.replay probe with
    | Replay.Crashed { error; _ } -> contains error "root window"
    | _ -> false
  in
  let minimized, oracle_calls =
    Metrics.time_mono_ns m "bench.minimize_ns" (fun () ->
        Replay.minimize ~ops:poisoned ~fails)
  in
  let minimize_ns =
    Metrics.hist_sum (Metrics.histogram m "bench.minimize_ns")
  in
  verdict "%d-op session replays at %.1f/sec (%d/%d converged)" ops_count
    replays_per_sec !converged replays;
  verdict "ddmin: %d poisoned ops -> %d in %d oracle calls (%.2f ms)"
    (List.length poisoned) (List.length minimized) oracle_calls
    (float_of_int minimize_ns /. 1e6);
  ( ops_count, replays, !converged, wall_ns, replays_per_sec,
    List.length poisoned, List.length minimized, oracle_calls, minimize_ns )

let write_replay_json ~path results
    (ops_count, replays, converged, wall_ns, replays_per_sec, poisoned_ops,
     minimized_ops, oracle_calls, minimize_ns) =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  add_results_json b results;
  Buffer.add_string b
    (Printf.sprintf
       "  \"replay\": {\"ops\": %d, \"replays\": %d, \"converged\": %d, \
        \"wall_ns\": %d, \"replays_per_sec\": %.1f},\n"
       ops_count replays converged wall_ns replays_per_sec);
  Buffer.add_string b
    (Printf.sprintf
       "  \"minimize\": {\"poisoned_ops\": %d, \"minimized_ops\": %d, \
        \"oracle_calls\": %d, \"wall_ns\": %d}\n"
       poisoned_ops minimized_ops oracle_calls minimize_ns);
  Buffer.add_string b "}\n";
  write_json ~path (Buffer.contents b)

(* -------- P2: continuous profiling — GC telemetry and span-tree cost -------- *)

let bench_profile () =
  (* Micro fixtures: a disarmed probe must stay a flag check. *)
  let off_profile =
    Profile.create ~metrics:(Metrics.create ()) ~tracer:(Tracing.create ()) ()
  in
  let off_sec = Profile.section off_profile "bench" in
  let on_profile =
    Profile.create ~metrics:(Metrics.create ()) ~tracer:(Tracing.create ()) ()
  in
  Profile.start on_profile;
  let on_sec = Profile.section on_profile "bench" in
  let results =
    report ~experiment:"P2: continuous profiling (GC telemetry + span tree)"
      ~claim:
        "a disarmed probe is one flag check; arming the profiler folds \
         every span into the call tree and samples the GC per event, and \
         must not multiply the storm's cost"
      (run_tests
         [
           Test.make ~name:"profile/event_section-disabled"
             (Staged.stage (fun () ->
                  Profile.event_section off_profile (fun () -> ())));
           Test.make ~name:"profile/event_section-armed"
             (Staged.stage (fun () ->
                  Profile.event_section on_profile (fun () -> ())));
           Test.make ~name:"profile/alloc_section-disabled"
             (Staged.stage (fun () ->
                  Profile.alloc_section off_profile off_sec (fun () -> ())));
           Test.make ~name:"profile/alloc_section-armed"
             (Staged.stage (fun () ->
                  Profile.alloc_section on_profile on_sec (fun () -> ())));
           (* The pan storm with the profiler disarmed (the shipping
              default: what the probes cost everyone) and armed (sink
              aggregation + quick_stat deltas + tree folding per event). *)
           Test.make ~name:"profile/pan_storm-disabled"
             (Staged.stage (snd (obs_pan_storm ())));
           Test.make ~name:"profile/pan_storm-armed"
             (Staged.stage (snd (obs_pan_storm ~profiled:true ())));
         ])
  in
  let off = find "profile/pan_storm-disabled" results
  and on = find "profile/pan_storm-armed" results in
  verdict
    "pan storm armed/disarmed = %.2fx; disarmed event probe costs %s, \
     disarmed alloc probe %s"
    (on /. off)
    (Format.asprintf "%a" pp_ns (find "profile/event_section-disabled" results))
    (Format.asprintf "%a" pp_ns (find "profile/alloc_section-disabled" results));
  results

(* Deterministic evidence for the JSON artifact: minor words per event on
   the batch-encode hot path (straight off the allocator) and per dispatched
   event under client churn (off the armed profiler's own series), plus the
   acceptance flamegraph's coverage of the measured dispatch wall time. *)
let measure_profile () =
  let batch_events =
    List.init 64 (fun i ->
        Event.Motion_notify
          {
            window = Xid.of_int 1;
            pos = Geom.point i i;
            root_pos = Geom.point i i;
          })
  in
  let rounds = if !smoke then 20 else 200 in
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    ignore (Wire.encode_batch batch_events)
  done;
  let encode_words_per_event =
    (Gc.minor_words () -. w0) /. float_of_int (rounds * 64)
  in
  (* Wall time of the same path without a bechamel run: reported, not
     gated (the words per event above are the encoder's gate). *)
  let encode_timing_rounds = if !smoke then 500 else 20_000 in
  let mt = Metrics.create () in
  Metrics.time_mono_ns mt "bench.batch_encode_ns" (fun () ->
      for _ = 1 to encode_timing_rounds do
        ignore (Wire.encode_batch batch_events)
      done);
  let batch_encode_64_ns =
    float_of_int (Metrics.hist_sum (Metrics.histogram mt "bench.batch_encode_ns"))
    /. float_of_int encode_timing_rounds
  in
  (* Churn: 100 clients jiggling while the armed WM drains; the profiler's
     gc.minor_words_per_event histogram is the measurement.  It measures
     ConfigureNotify only: these clients select no Exposure, so the Expose
     storm queues nothing (Expose has its own round,
     [expose_words_per_event]). *)
  let server = Server.create () in
  let wm = Wm.start ~resources:quiet_resources server in
  let apps = Workload.launch_n server 100 in
  ignore (Wm.step wm);
  Profile.start (Server.profiler server);
  let churn_rounds = if !smoke then 3 else 20 in
  for round = 1 to churn_rounds do
    Workload.configure_churn server ~seed:round ~rounds:1 apps;
    Workload.expose_storm server ~seed:round ~rounds:1 apps;
    List.iter (fun app -> ignore (Client_app.process_events app)) apps;
    ignore (Wm.step wm)
  done;
  Profile.stop (Server.profiler server);
  let h = Metrics.histogram (Server.metrics server) "gc.minor_words_per_event" in
  let churn_words_per_event =
    float_of_int (Metrics.hist_sum h)
    /. float_of_int (max 1 (Metrics.hist_count h))
  in
  (* Event storm, major-collection check: keep churning the same managed
     population until the WM has dispatched [storm_target] more events; a
     hot path that only allocates short-lived values promotes nothing, so
     the storm must complete without a single major collection. *)
  let storm_target = if !smoke then 1_000 else 10_000 in
  let dispatched () =
    Metrics.counter_value (Server.metrics server) "wm.events_dispatched"
  in
  Gc.full_major ();
  let d0 = dispatched () in
  let mc0 = (Gc.quick_stat ()).Gc.major_collections in
  let round = ref 0 in
  while dispatched () - d0 < storm_target && !round < 2_000 do
    incr round;
    Workload.configure_churn server ~seed:(1000 + !round) ~rounds:1 apps;
    Workload.expose_storm server ~seed:(1000 + !round) ~rounds:1 apps;
    List.iter (fun app -> ignore (Client_app.process_events app)) apps;
    ignore (Wm.step wm)
  done;
  let storm_events = dispatched () - d0 in
  let storm_major = (Gc.quick_stat ()).Gc.major_collections - mc0 in
  (* Coverage: profile the swmcmd scripted session (the acceptance
     workload) and compare the tree's root total against the dispatch wall
     the probe measured around each event. *)
  let server2 = Server.create () in
  let wm2 = Wm.start ~resources:[ Templates.open_look ] server2 in
  let _xterm = Stock.xterm server2 ~at:(Geom.point 60 80) () in
  let _xclock = Stock.xclock server2 ~at:(Geom.point 600 60) () in
  ignore (Wm.step wm2);
  let p = Server.profiler server2 in
  Profile.start p;
  let sender = Server.connect server2 ~name:"bench-swmcmd" in
  let send line =
    Swm_core.Swmcmd.send server2 sender ~screen:0 line;
    ignore (Wm.step wm2)
  in
  for i = 1 to 10 do
    send (Printf.sprintf "f.panTo(%d,%d)" (i * 120) (i * 80))
  done;
  for _ = 1 to 3 do
    send "f.iconify(XTerm)";
    send "f.deiconify(XTerm)"
  done;
  Profile.stop p;
  let collapsed = Profile.to_collapsed p in
  let stacks =
    String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 collapsed
  in
  verdict "minor words/event: batch-encode %.1f, churn dispatch %.1f"
    encode_words_per_event churn_words_per_event;
  verdict "batch-encode-64: %.0f ns/batch (%.1f ns/event) deterministic"
    batch_encode_64_ns (batch_encode_64_ns /. 64.);
  verdict "%d-event storm: %d major collections (budget 0)" storm_events
    storm_major;
  verdict
    "flamegraph: %d collapsed stacks cover %.1f%% of %.2f ms dispatch wall \
     (%d events)"
    stacks
    (Profile.coverage p *. 100.)
    (float_of_int (Profile.dispatch_wall_ns p) /. 1e6)
    (Profile.events p);
  ( encode_words_per_event, churn_words_per_event, batch_encode_64_ns,
    storm_events, storm_major, Profile.events p, Profile.dispatch_wall_ns p,
    Profile.root_total_ns p, Profile.coverage p, stacks )

(* Expose in its own round: 100 managed clients that select Exposure on
   their windows, as perfbench's storm clients do, each damaged once a
   round and read at once, then a WM step.  Minor words per event the
   clients read, from the damage through the read (the WM reads none). *)
let expose_rounds = 20

let expose_words_per_event () =
  let server, wm = fresh_wm () in
  let apps = Workload.launch_n server 100 in
  ignore (Wm.step wm);
  List.iter
    (fun app ->
      Server.select_input server (Client_app.conn app) (Client_app.window app)
        [ Event.Structure_notify; Event.Exposure_mask ];
      ignore (Client_app.process_events app))
    apps;
  let round seed =
    Workload.expose_storm server ~seed ~rounds:1 apps;
    let read = List.fold_left (fun n app -> n + Client_app.process_events app) 0 apps in
    ignore (Wm.step wm);
    read
  in
  for seed = 1 to 3 do
    ignore (round seed)
  done;
  let w0 = Gc.minor_words () and events = ref 0 in
  for seed = 4 to 3 + expose_rounds do
    events := !events + round seed
  done;
  (Gc.minor_words () -. w0) /. float_of_int (max 1 !events)

(* The budgets live inside the artifact next to the numbers they bound.
   The ns budgets are generous against runner noise.  The minor-words
   counts are a property of the code path, not the machine: the encoder's
   budget carries ~2x headroom over it, the churn dispatch's and the
   Expose round's 10% (152.3 and 86.5 measured). *)
let expose_words_budget = 95.2

let write_profile_json ~path results
    (encode_words, churn_words, batch_encode_64_ns, storm_events, storm_major,
     events, dispatch_wall_ns, root_total_ns, coverage, stacks)
    (queries_per_manage, scans_per_manage)
    (requests_per_manage, requests_per_unmanage, layouts_per_manage)
    (panner_clients, miniatures, unchanged, raise, pan, move)
    (frames_unchanged, frames_raise, frames_pan, frames_move) visits_per_tick
    ((dv_small, words_small, tv_small), (dv_large, words_large, tv_large))
    ignored_costs =
  let disabled = find "profile/event_section-disabled" results
  and off = find "profile/pan_storm-disabled" results
  and on = find "profile/pan_storm-armed" results in
  let num v = if Float.is_nan v then "null" else Printf.sprintf "%.2f" v in
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  add_results_json b results;
  (* Arming the profiler is gated as counts over the fixed pan storm: the
     minor words it adds per dispatched event (budget 2x the 1,161 measured)
     and the spans it folds into the tree per event (14: the dispatch, its
     ten pans and their children; budget half a span over).  The wall-clock
     armed/disarmed ratio is reported, not gated: it read 2.13 against a
     2.0 budget in one run of an unchanged tree. *)
  let words_off, _, _ = obs_costs () in
  let words_armed, _, spans = obs_costs ~profiled:true () in
  Buffer.add_string b
    (Printf.sprintf
       "  \"profiler\": {\"event_section_disabled_ns\": %s, \
        \"pan_storm_disabled_ns\": %s, \"pan_storm_armed_ns\": %s, \
        \"armed_ratio\": %s, \"event_section_disabled_ns_budget\": 50.0, \
        \"storm_rounds\": %d, \"armed_words_per_event\": %.1f, \
        \"armed_words_per_event_budget\": %.1f, \"spans_per_event\": %.3f, \
        \"spans_per_event_budget\": %.1f},\n"
       (num disabled) (num off) (num on)
       (num (on /. off)) obs_rounds (words_armed -. words_off)
       profiler_words_budget spans profiler_spans_budget);
  Buffer.add_string b
    (Printf.sprintf
       "  \"allocation\": {\"batch_encode_words_per_event\": %.1f, \
        \"batch_encode_words_per_event_budget\": 5.0, \
        \"churn_words_per_event\": %.1f, \"churn_words_per_event_budget\": 167.5, \
        \"expose_words_per_event\": %.1f, \"expose_words_per_event_budget\": %.1f},\n"
       encode_words churn_words (expose_words_per_event ()) expose_words_budget);
  (* Wall time, reported only: a CPU-only encoder slowdown shows here and
     fails no gate. *)
  Buffer.add_string b
    (Printf.sprintf "  \"hot_path\": {\"batch_encode_64_ns\": %.1f},\n"
       batch_encode_64_ns);
  Buffer.add_string b
    (Printf.sprintf
       "  \"storm\": {\"events\": %d, \"major_collections\": %d, \
        \"major_collections_budget\": 0},\n"
       storm_events storm_major);
  Buffer.add_string b
    (Printf.sprintf
       "  \"flame\": {\"events\": %d, \"dispatch_wall_ns\": %d, \
        \"root_total_ns\": %d, \"coverage\": %.3f, \"collapsed_stacks\": %d},\n"
       events dispatch_wall_ns root_total_ns coverage stacks);
  (* A manage of a known class asks the database 4 questions, its decoration
     name and stickiness and two panel definitions, all memo hits; its
     decoration's attributes come from the toolkit's class records.  Records
     that never hit read 43 queries; a client query keyed on the never-seen
     instance name scans twice per manage. *)
  Buffer.add_string b
    (Printf.sprintf
       "  \"resource_db\": {\"manage_cycles\": %d, \"queries_per_manage\": \
        %.2f, \"queries_per_manage_budget\": 5.0, \"scans_per_manage\": %.2f, \
        \"scans_per_manage_budget\": 0.5},\n"
       scan_cycles queries_per_manage scans_per_manage);
  (* Realizing an OpenLook decoration costs one request per window plus one
     MapSubwindows per panel with children, and unrealizing it one
     DestroyWindow.  A WM that selects and maps each decoration window with
     its own request reads 35 requests per manage, one that destroys each
     window 9 per unmanage, and one that lays the tree out again after
     creating it 4 root layouts per manage. *)
  Buffer.add_string b
    (Printf.sprintf
       "  \"realize\": {\"cycles\": %d, \"requests_per_manage\": %.2f, \
        \"requests_per_manage_budget\": 19.0, \"requests_per_unmanage\": %.2f, \
        \"requests_per_unmanage_budget\": 1.0, \"root_layouts_per_manage\": %.2f, \
        \"root_layouts_per_manage_budget\": 1.0},\n"
       realize_cycles requests_per_manage requests_per_unmanage layouts_per_manage);
  (* A reconciling panner pays for what changed; a rebuilding one issues
     4N+3 requests per refresh, N the miniatures.  The step reconcile
     examines only the damaged clients; a full walk reads every frame and
     miniature, 200 or more on 100 clients. *)
  Buffer.add_string b
    (Printf.sprintf
       "  \"panner\": {\"clients\": %d, \"miniatures\": %d, \
        \"requests_per_unchanged\": %.2f, \"requests_per_unchanged_budget\": 0.0, \
        \"requests_per_raise\": %.2f, \"requests_per_raise_budget\": 1.0, \
        \"requests_per_pan\": %.2f, \"requests_per_pan_budget\": 1.0, \
        \"requests_per_move\": %.2f, \"requests_per_move_budget\": 1.0, \
        \"frames_per_unchanged\": %.2f, \"frames_per_unchanged_budget\": 0.0, \
        \"frames_per_raise\": %.2f, \"frames_per_raise_budget\": 1.0, \
        \"frames_per_pan\": %.2f, \"frames_per_pan_budget\": 0.0, \
        \"frames_per_move\": %.2f, \"frames_per_move_budget\": 1.0},\n"
       panner_clients miniatures unchanged raise pan move frames_unchanged frames_raise
       frames_pan frames_move);
  (* The governor tick examines the connections that had something to
     report; a full fold examines every connection, idle ones included. *)
  Buffer.add_string b
    (Printf.sprintf
       "  \"governor\": {\"idle\": %d, \"active\": %d, \"ticks\": %d, \
        \"visits_per_tick\": %.2f, \"visits_per_tick_budget\": %d.0},\n"
       governor_idle governor_active governor_ticks visits_per_tick governor_active);
  (* A manage + retire cycle costs the same beside 50 or 800 residents,
     and its minor words stay under a budget that is the measured count
     rounded up to the next 100.  A disconnect examines only what the
     closing connection still holds (its leader window: the client
     destroyed its managed window first); two folds over every window
     examine more than 17,000 beside 800. *)
  Buffer.add_string b
    (Printf.sprintf
       "  \"population\": {\"cycles\": %d, \"small\": %d, \"large\": %d, \
        \"disconnect_visits_small\": %.2f, \"disconnect_visits_small_budget\": %.1f, \
        \"disconnect_visits_large\": %.2f, \"disconnect_visits_large_budget\": %.1f, \
        \"words_per_cycle_small\": %.0f, \"words_per_cycle_small_budget\": %.1f, \
        \"words_per_cycle_large\": %.0f, \"words_per_cycle_large_budget\": %.1f, \
        \"words_ratio\": %.3f, \"words_ratio_budget\": 1.1, \
        \"tick_visits_small\": %.2f, \"tick_visits_large\": %.2f},\n"
       population_cycles population_small population_large dv_small
       population_disconnect_budget dv_large population_disconnect_budget words_small
       population_words_budget words_large population_words_budget
       (words_large /. words_small) tv_small tv_large);
  (* An event the WM reads and ignores costs its queueing, its fate slot
     and the WM's ticks; the budget is the measured count plus 10%.  A
     fresh fate record per event reads 30.5, a closure per histogram
     observation 54, a Fun.protect per dispatch 53.8.  (Selecting Exposure
     on the toolkit windows again shows in the population's words per
     cycle.)  It reads the clock at ingress and at the end of its
     dispatch; the batch's read (one per 8 events) and the sampler's
     (one per 32) add 0.16.  A dispatch that reads its own start reads
     3.16; the budget allows no third read per event. *)
  let ignored_words, clock_reads = ignored_costs in
  Buffer.add_string b
    (Printf.sprintf
       "  \"dispatch\": {\"clients\": %d, \"events_per_round\": %d, \
        \"rounds\": %d, \"words_per_ignored_event\": %.1f, \
        \"words_per_ignored_event_budget\": %.1f, \"clock_reads_per_event\": %.3f, \
        \"clock_reads_per_event_budget\": %.2f}\n"
       dispatch_clients dispatch_per_round dispatch_rounds ignored_words
       dispatch_words_budget clock_reads dispatch_clock_reads_budget);
  Buffer.add_string b "}\n";
  write_json ~path (Buffer.contents b)

(* BENCH_*.json artifacts land at the repo root (the directory holding
   dune-project) no matter what cwd `dune exec` leaves us in, so CI can
   upload them from a fixed path.  BENCH_OUT_DIR overrides the anchor. *)
let out_path name =
  match Sys.getenv_opt "BENCH_OUT_DIR" with
  | Some dir when dir <> "" -> Filename.concat dir name
  | Some _ | None ->
      let rec anchor dir =
        if Sys.file_exists (Filename.concat dir "dune-project") then
          Filename.concat dir name
        else
          let parent = Filename.dirname dir in
          if parent = dir then name else anchor parent
      in
      anchor (Sys.getcwd ())

let robustness_only = ref false
let replay_only = ref false
let profile_only = ref false

(* One runner per family, so the --FAMILY flags and the default full run
   share the exact same code paths (and artifact contents). *)
let run_robustness_family () =
  write_robustness_json ~path:(out_path "BENCH_robustness.json")
    (bench_robustness ()) (measure_robustness ()) (measure_overload ())

let run_replay_family () =
  let rep = record_replay_report ~clients:3 ~rounds:2 ~seed:7 in
  write_replay_json ~path:(out_path "BENCH_replay.json") (bench_replay rep)
    (measure_replay rep)

let run_profile_family () =
  let results = bench_profile () in
  let results = results @ bench_scale () in
  write_profile_json ~path:(out_path "BENCH_profile.json") results
    (measure_profile ()) (resource_db_per_manage ()) (realize_per_cycle ())
    (panner_requests ())
    (panner_frames ()) (governor_visits ())
    (population population_small, population population_large)
    (ignored_event_costs ())

let finish () =
  Format.printf "@.done.@.";
  List.iter (Format.eprintf "%s@.") (List.rev !breaches);
  exit (if !breaches = [] then 0 else 1)

let () =
  Arg.parse
    [
      ("--smoke", Arg.Set smoke, " tiny quota, for CI smoke runs");
      ( "--robustness",
        Arg.Set robustness_only,
        " run the robustness family (writes BENCH_robustness.json)" );
      ( "--replay",
        Arg.Set replay_only,
        " run the replay family (writes BENCH_replay.json)" );
      ( "--profile",
        Arg.Set profile_only,
        " run the profiling family (writes BENCH_profile.json)" );
    ]
    (fun a -> raise (Arg.Bad ("unknown argument: " ^ a)))
    "bench [--smoke] [--robustness] [--replay] [--profile]";
  Format.printf "swm benchmark harness — one experiment per DESIGN.md index entry%s@."
    (if !smoke then " (smoke run)" else "");
  let families =
    [ (robustness_only, run_robustness_family); (replay_only, run_replay_family);
      (profile_only, run_profile_family) ]
  in
  if List.exists (fun (flag, _) -> !flag) families then begin
    List.iter (fun (flag, run) -> if !flag then run ()) families;
    finish ()
  end;
  let ((pipeline_results, _, _, _, _, _) as pipeline) = bench_pipeline () in
  write_pipeline_json ~path:(out_path "BENCH_pipeline.json") pipeline;
  write_observability_json ~path:(out_path "BENCH_observability.json")
    (bench_observability ())
    ~pipeline_pan_ns:(find "pipeline/pan_storm" pipeline_results)
    ~slo:(measure_slo ());
  write_sample_trace ~path:(out_path "BENCH_observability.trace.json");
  run_robustness_family ();
  run_replay_family ();
  run_profile_family ();
  bench_figures ();
  bench_panner ();
  bench_manage_comparison ();
  bench_dispatch_comparison ();
  bench_config ();
  bench_pan ();
  bench_session ();
  bench_bindings ();
  bench_shape ();
  bench_placement ();
  bench_specific_lookup ();
  bench_multi_desktop ();
  bench_policy_cost ();
  bench_extensions ();
  finish ()

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

let bench_panner () =
  let mk n =
    let server = Server.create () in
    let wm = Wm.start ~resources:[ Templates.open_look; "swm*rootPanels:\n" ] server in
    let ctx = Wm.ctx wm in
    let _apps =
      Workload.launch server
        { Workload.default_params with count = n; area = (3000, 2400) }
    in
    ignore (Wm.step wm);
    (ctx, n)
  in
  let fixtures = List.map mk [ 5; 25; 100 ] in
  let tests =
    List.map
      (fun (ctx, n) ->
        Test.make
          ~name:(Printf.sprintf "fig3/panner-refresh-%03d" n)
          (Staged.stage (fun () -> Panner.refresh ctx ~screen:0)))
      fixtures
  in
  let results =
    report ~experiment:"F3: Virtual Desktop panner (Figure 3)"
      ~claim:"the panner shows a miniature of every window; refresh scales with N"
      (run_tests tests)
  in
  let t5 = find "fig3/panner-refresh-005" results
  and t100 = find "fig3/panner-refresh-100" results in
  verdict "refresh(100 windows) / refresh(5 windows) = %.1fx" (t100 /. t5)

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
                  Vdesk.switch_desktop ctx ~screen:0 !current));
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
  (* A panning storm through the full WM: pans generate ConfigureNotify and
     Expose traffic the WM's own batched queue folds. *)
  let mk_pan_storm () =
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
    let flip = ref false in
    fun () ->
      flip := not !flip;
      for i = 1 to 10 do
        Vdesk.pan_to ctx ~screen:0
          (if !flip then Geom.point (i * 100) (i * 80) else Geom.point 0 0)
      done;
      ignore (Wm.step wm)
  in
  (* A hundred clients jiggling and damaging their windows while the WM
     drains through read_events. *)
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
           Test.make ~name:"pipeline/pan_storm" (Staged.stage (mk_pan_storm ()));
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
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Format.printf "   -> wrote %s@." path

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
   measured and lands in BENCH_robustness.json next to the budgets CI
   gates it against. *)
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
  (* The overload budgets travel next to the measurements CI gates:
     queue depth must stay at or under the cap, no state-bearing event may
     ever be shed, the flooder must be evicted, every survivor re-adopted,
     and the recovery latencies must stay inside their budgets. *)
  Buffer.add_string b
    (Printf.sprintf
       "  \"overload\": {\"clients\": %d, \"queue_cap\": %d, \
        \"max_queue_depth\": %d, \"cap_overruns\": %d, \"events_shed\": %d, \
        \"state_bearing_shed\": %d, \"state_bearing_shed_budget\": 0, \
        \"flooder_evicted\": %b, \"eviction_ns\": %d, \"recovery_ns\": %d, \
        \"recovery_budget_ns\": 500000000, \"evict_to_readopt_ns\": %d, \
        \"evict_to_readopt_budget_ns\": 2000000000, \"survivors\": %d, \
        \"readopted\": %d, \"tier_transitions\": %d},\n"
       ov.ov_clients ov.ov_cap ov.ov_max_depth ov.ov_overruns ov.ov_shed
       ov.ov_shed_state ov.ov_evicted ov.ov_eviction_ns ov.ov_recovery_ns
       ov.ov_evict_to_readopt_ns ov.ov_survivors ov.ov_readopted
       ov.ov_tier_transitions);
  Buffer.add_string b
    (Printf.sprintf "  \"metrics\": %s\n" (Metrics.to_json metrics));
  Buffer.add_string b "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Format.printf "   -> wrote %s@." path

(* -------- O1: observability — span tracing across the request path -------- *)

let bench_observability () =
  (* The same pan-storm fixture as pipeline/pan_storm, once with the tracer
     left disabled (the shipping default — this is the overhead the guards
     cost everyone) and once recording (the cost of turning tracing on). *)
  let mk_pan_storm ?(traced = false) ?(recorder = false) ?(ledger = true) () =
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
    let flip = ref false in
    fun () ->
      flip := not !flip;
      for i = 1 to 10 do
        Vdesk.pan_to ctx ~screen:0
          (if !flip then Geom.point (i * 100) (i * 80) else Geom.point 0 0)
      done;
      ignore (Wm.step wm)
  in
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
           Test.make ~name:"observability/pan_storm-traced-off"
             (Staged.stage (mk_pan_storm ()));
           Test.make ~name:"observability/pan_storm-traced-on"
             (Staged.stage (mk_pan_storm ~traced:true ()));
           (* The CI-gated number: the same storm with the flight recorder
              armed (ring writes + periodic snapshots), against the
              recorder-off fixture above. *)
           Test.make ~name:"observability/recorder-overhead"
             (Staged.stage (mk_pan_storm ~recorder:true ()));
           (* The lifecycle ledger ships armed, so the default storm above
              already pays its cost; this fixture disarms it for the
              baseline the CI ledger gate divides by. *)
           Test.make ~name:"observability/pan_storm-ledger-off"
             (Staged.stage (mk_pan_storm ~ledger:false ()));
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

(* The p999 budgets per regime, nanoseconds.  Generous against CI-runner
   noise, but they pin the order of magnitude: a quiet WM dispatches
   within 50ms p999, a storm within 250ms, and even an overloaded WM
   within 1s (shedding and coalescing are what keep the tail bounded). *)
let slo_budgets_ns = [ ("quiet", 5.0e7); ("storm", 2.5e8); ("overload", 1.0e9) ]

(* Run one scripted regime against a live WM and harvest the per-class
   event.e2e_ns histograms the dispatch loop fills from ingress stamps. *)
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
  let budgets =
    String.concat ", "
      (List.map
         (fun (name, ns) -> Printf.sprintf "\"%s\": %.0f" name ns)
         slo_budgets_ns)
  in
  Printf.sprintf "{\n    \"budget_p999_ns\": {%s},\n%s\n  }" budgets
    (String.concat ",\n" (List.map (fun (n, _) -> regime n) slo_budgets_ns))

let write_observability_json ~path results ~pipeline_pan_ns ~slo =
  let off = find "observability/pan_storm-traced-off" results
  and on = find "observability/pan_storm-traced-on" results
  and span_disabled = find "observability/span-disabled" results
  and span_enabled = find "observability/span-enabled" results in
  let num v = if Float.is_nan v then "null" else Printf.sprintf "%.2f" v in
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  add_results_json b results;
  (* disabled_vs_pipeline_ratio compares the instrumented-but-disabled pan
     storm against the pipeline family's identical fixture measured in the
     same process: the guards' overhead relative to run-to-run noise. *)
  Buffer.add_string b
    (Printf.sprintf
       "  \"overhead\": {\"span_disabled_ns\": %s, \"span_enabled_ns\": %s, \
        \"pan_storm_traced_off_ns\": %s, \"pan_storm_traced_on_ns\": %s, \
        \"traced_on_ratio\": %s, \"disabled_vs_pipeline_ratio\": %s},\n"
       (num span_disabled) (num span_enabled) (num off) (num on)
       (num (on /. off))
       (num (off /. pipeline_pan_ns)));
  (* The recorder budget the CI observability job gates on: a disabled
     record must stay a flag check (budget generous against CI-runner
     noise), and arming the recorder must not multiply the storm's cost. *)
  let record_disabled = find "observability/record-disabled" results
  and record_enabled = find "observability/record-enabled" results
  and recorder_on = find "observability/recorder-overhead" results in
  Buffer.add_string b
    (Printf.sprintf
       "  \"recorder\": {\"record_disabled_ns\": %s, \
        \"record_enabled_ns\": %s, \"pan_storm_recorder_off_ns\": %s, \
        \"pan_storm_recorder_on_ns\": %s, \"armed_ratio\": %s, \
        \"record_disabled_budget_ns\": 50.0, \"armed_ratio_budget\": 2.0},\n"
       (num record_disabled) (num record_enabled) (num off) (num recorder_on)
       (num (recorder_on /. off)));
  (* The ledger budget, gated like the recorder's: the default storm runs
     with the ledger armed (it ships on), the -ledger-off fixture is the
     baseline, and arming must not multiply the storm's cost. *)
  let ledger_off = find "observability/pan_storm-ledger-off" results in
  Buffer.add_string b
    (Printf.sprintf
       "  \"ledger\": {\"pan_storm_ledger_off_ns\": %s, \
        \"pan_storm_ledger_on_ns\": %s, \"armed_ratio\": %s, \
        \"armed_ratio_budget\": 2.0},\n"
       (num ledger_off) (num off)
       (num (off /. ledger_off)));
  (* The per-class end-to-end latency SLOs, measured from live regimes. *)
  Buffer.add_string b (Printf.sprintf "  \"slo\": %s\n" slo);
  Buffer.add_string b "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Format.printf "   -> wrote %s@." path

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
  let oc = open_out path in
  output_string oc (Tracing.to_chrome_json (Server.tracer server));
  close_out oc;
  Format.printf "   -> wrote %s (%d events)@." path
    (List.length (Tracing.events (Server.tracer server)))

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
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Format.printf "   -> wrote %s@." path

(* -------- P2: continuous profiling — GC telemetry and span-tree cost -------- *)

let bench_profile () =
  (* The pipeline pan-storm fixture with the profiler disarmed (the
     shipping default: what the probes cost everyone) and armed (sink
     aggregation + quick_stat deltas + tree folding per event). *)
  let mk_pan_storm ?(armed = false) () =
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
    if armed then Profile.start (Server.profiler server);
    let flip = ref false in
    fun () ->
      flip := not !flip;
      for i = 1 to 10 do
        Vdesk.pan_to ctx ~screen:0
          (if !flip then Geom.point (i * 100) (i * 80) else Geom.point 0 0)
      done;
      ignore (Wm.step wm)
  in
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
           Test.make ~name:"profile/pan_storm-disabled"
             (Staged.stage (mk_pan_storm ()));
           Test.make ~name:"profile/pan_storm-armed"
             (Staged.stage (mk_pan_storm ~armed:true ()));
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
  (* Deterministic wall number for the same path, so CI can compare it
     against the committed bench/BASELINE.json without a bechamel run. *)
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
     gc.minor_words_per_event histogram is the measurement. *)
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

(* The budgets CI gates on live inside the artifact next to the numbers.
   The ns budgets are generous against runner noise; the minor-words
   budgets carry ~2x headroom over the measured allocation, which is a
   property of the code path, not the machine. *)
let write_profile_json ~path results
    (encode_words, churn_words, batch_encode_64_ns, storm_events, storm_major,
     events, dispatch_wall_ns, root_total_ns, coverage, stacks)
    (queries_per_manage, scans_per_manage) =
  let disabled = find "profile/event_section-disabled" results
  and off = find "profile/pan_storm-disabled" results
  and on = find "profile/pan_storm-armed" results in
  let num v = if Float.is_nan v then "null" else Printf.sprintf "%.2f" v in
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  add_results_json b results;
  Buffer.add_string b
    (Printf.sprintf
       "  \"profiler\": {\"event_section_disabled_ns\": %s, \
        \"pan_storm_disabled_ns\": %s, \"pan_storm_armed_ns\": %s, \
        \"armed_ratio\": %s, \"disabled_budget_ns\": 50.0, \
        \"armed_ratio_budget\": 2.0},\n"
       (num disabled) (num off) (num on)
       (num (on /. off)));
  Buffer.add_string b
    (Printf.sprintf
       "  \"allocation\": {\"batch_encode_words_per_event\": %.1f, \
        \"batch_encode_budget_words\": 5.0, \"churn_words_per_event\": \
        %.1f, \"churn_budget_words\": 400.0},\n"
       encode_words churn_words);
  Buffer.add_string b
    (Printf.sprintf
       "  \"hot_path\": {\"batch_encode_64_ns\": %.1f, \
        \"baseline_regression_budget\": 1.5},\n"
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
  (* A manage cycle scans only for its client-specific keys (2 of them); a
     memo that never hits scans for all 54 of its queries. *)
  Buffer.add_string b
    (Printf.sprintf
       "  \"resource_db\": {\"manage_cycles\": %d, \"queries_per_manage\": \
        %.2f, \"scans_per_manage\": %.2f, \"scans_per_manage_budget\": 3.0}\n"
       scan_cycles queries_per_manage scans_per_manage);
  Buffer.add_string b "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Format.printf "   -> wrote %s@." path

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
let run_all = ref false

(* One runner per family, so --FAMILY flags, --all, and the default full
   run share the exact same code paths (and artifact contents). *)
let run_robustness_family () =
  write_robustness_json ~path:(out_path "BENCH_robustness.json")
    (bench_robustness ()) (measure_robustness ()) (measure_overload ())

let run_replay_family () =
  let rep = record_replay_report ~clients:3 ~rounds:2 ~seed:7 in
  write_replay_json ~path:(out_path "BENCH_replay.json") (bench_replay rep)
    (measure_replay rep)

let run_profile_family () =
  write_profile_json ~path:(out_path "BENCH_profile.json") (bench_profile ())
    (measure_profile ()) (resource_db_per_manage ())

let () =
  Arg.parse
    [
      ("--smoke", Arg.Set smoke, " tiny quota, for CI smoke runs");
      ( "--robustness",
        Arg.Set robustness_only,
        " run only the robustness family (writes BENCH_robustness.json)" );
      ( "--replay",
        Arg.Set replay_only,
        " run only the replay family (writes BENCH_replay.json)" );
      ( "--profile",
        Arg.Set profile_only,
        " run only the profiling family (writes BENCH_profile.json)" );
      ( "--all",
        Arg.Set run_all,
        " run every family and experiment (overrides the --FAMILY flags)" );
    ]
    (fun a -> raise (Arg.Bad ("unknown argument: " ^ a)))
    "bench [--smoke] [--robustness] [--replay] [--profile] [--all]";
  Format.printf "swm benchmark harness — one experiment per DESIGN.md index entry%s@."
    (if !smoke then " (smoke run)" else "");
  if (not !run_all) && !robustness_only then begin
    run_robustness_family ();
    Format.printf "@.done.@.";
    exit 0
  end;
  if (not !run_all) && !replay_only then begin
    run_replay_family ();
    Format.printf "@.done.@.";
    exit 0
  end;
  if (not !run_all) && !profile_only then begin
    run_profile_family ();
    Format.printf "@.done.@.";
    exit 0
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
  Format.printf "@.done.@."

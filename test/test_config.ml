module Config = Swm_core.Config
module Server = Swm_xlib.Server
module Xrdb = Swm_xrdb.Xrdb

let check = Alcotest.check

let fixture resources =
  let server =
    Server.create
      ~screens:
        [ { Server.size = (1152, 900); monochrome = false };
          { Server.size = (1024, 768); monochrome = true } ]
      ()
  in
  let db = Xrdb.create () in
  (match Xrdb.load_string db resources with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "bad resources: %s" msg);
  Config.create db server

let scope ?(shaped = false) ?(sticky = false) instance class_ =
  { Config.instance; class_; shaped; sticky }

let test_per_screen () =
  let cfg =
    fixture
      {|
swm.color.screen0.panner: yes
swm.monochrome.screen1.panner: mono-only
|}
  in
  check (Alcotest.option Alcotest.string) "screen0" (Some "yes")
    (Config.query1 cfg ~screen:0 "panner");
  check (Alcotest.option Alcotest.string) "screen1" (Some "mono-only")
    (Config.query1 cfg ~screen:1 "panner")

let test_loose_applies_everywhere () =
  let cfg = fixture "swm*decoration: openLook\n" in
  check (Alcotest.option Alcotest.string) "screen0" (Some "openLook")
    (Config.query_client cfg ~screen:0 (scope "xterm" "XTerm") "decoration");
  check (Alcotest.option Alcotest.string) "screen1" (Some "openLook")
    (Config.query_client cfg ~screen:1 (scope "foo" "Bar") "decoration")

let test_specific_resource_paper_syntax () =
  (* The paper's full specific resource example. *)
  let cfg =
    fixture
      {|
swm*decoration: openLook
swm.color.screen0.XClock.xclock.decoration: noTitlePanel
|}
  in
  check (Alcotest.option Alcotest.string) "xclock gets specific"
    (Some "noTitlePanel")
    (Config.query_client cfg ~screen:0 (scope "xclock" "XClock") "decoration");
  check (Alcotest.option Alcotest.string) "others get default" (Some "openLook")
    (Config.query_client cfg ~screen:0 (scope "xterm" "XTerm") "decoration");
  check (Alcotest.option Alcotest.string) "other screen gets default"
    (Some "openLook")
    (Config.query_client cfg ~screen:1 (scope "xclock" "XClock") "decoration")

let test_class_vs_instance () =
  let cfg =
    fixture
      {|
swm*XTerm*decoration: forClass
swm*console*decoration: forInstance
|}
  in
  check (Alcotest.option Alcotest.string) "instance wins" (Some "forInstance")
    (Config.query_client cfg ~screen:0 (scope "console" "XTerm") "decoration");
  check (Alcotest.option Alcotest.string) "class fallback" (Some "forClass")
    (Config.query_client cfg ~screen:0 (scope "login" "XTerm") "decoration")

let test_shaped_prefix () =
  (* Paper §5: swm*shaped*decoration: shapeit *)
  let cfg =
    fixture
      {|
swm*decoration: openLook
swm*shaped*decoration: shapeit
|}
  in
  check (Alcotest.option Alcotest.string) "shaped client" (Some "shapeit")
    (Config.query_client cfg ~screen:0 (scope ~shaped:true "oclock" "Clock")
       "decoration");
  check (Alcotest.option Alcotest.string) "plain client" (Some "openLook")
    (Config.query_client cfg ~screen:0 (scope "xterm" "XTerm") "decoration")

let test_sticky_prefix () =
  (* Paper §6.2: swm*sticky*decoration: stickyPanel *)
  let cfg =
    fixture
      {|
swm*decoration: openLook
swm*sticky*decoration: stickyPanel
swm*xclock*sticky: True
|}
  in
  check (Alcotest.option Alcotest.string) "sticky decoration" (Some "stickyPanel")
    (Config.query_client cfg ~screen:0 (scope ~sticky:true "xclock" "XClock")
       "decoration");
  check Alcotest.bool "sticky resource" true
    (Config.query_client_bool cfg ~screen:0 (scope "xclock" "XClock") "sticky"
       ~default:false);
  check Alcotest.bool "non-sticky client" false
    (Config.query_client_bool cfg ~screen:0 (scope "xterm" "XTerm") "sticky"
       ~default:false)

let test_swm_over_Swm () =
  let cfg =
    fixture {|
Swm*panner: class-level
swm*panner: name-level
|}
  in
  check (Alcotest.option Alcotest.string) "swm has precedence" (Some "name-level")
    (Config.query1 cfg ~screen:0 "panner")

let test_panel_definition () =
  let cfg = fixture "Swm*panel.openLook: button a +0+0 panel client +0+1\n" in
  check Alcotest.bool "definition found" true
    (Config.panel_definition cfg ~screen:0 "openLook" <> None);
  check Alcotest.bool "missing panel" true
    (Config.panel_definition cfg ~screen:0 "nonesuch" = None)

let test_templates_load () =
  List.iter
    (fun (name, text) ->
      let db = Xrdb.create () in
      match Xrdb.load_string db text with
      | Ok n ->
          if n < 5 then Alcotest.failf "template %s suspiciously small (%d)" name n
      | Error msg -> Alcotest.failf "template %s does not parse: %s" name msg)
    Swm_core.Templates.names

let test_include_template_by_name () =
  (* A user configuration can include a shipped template and override it
     (paper §3: "include and then override defaults in a standard template
     file"); WIDTH/HEIGHT come from the display like xrdb's cpp defines. *)
  let server = Swm_xlib.Server.create () in
  let wm =
    Swm_core.Wm.start
      ~resources:
        [ "#include \"OpenLook+\"\nswm*decoration: titleOnly\n\
           Swm*panel.titleOnly: button name +C+0 panel client +0+1\n\
           swm*screenWidth: WIDTH\n#ifdef COLOR\nswm*colorful: yes\n#endif\n" ]
      server
  in
  let ctx = Swm_core.Wm.ctx wm in
  (* The template loaded (panner resource comes from it)... *)
  check (Alcotest.option Alcotest.string) "template included" (Some "True")
    (Config.query1 ctx.Swm_core.Ctx.cfg ~screen:0 "panner");
  (* ...the user's override wins... *)
  check (Alcotest.option Alcotest.string) "override wins" (Some "titleOnly")
    (Config.query_client ctx.Swm_core.Ctx.cfg ~screen:0 (scope "xterm" "XTerm")
       "decoration");
  (* ...WIDTH expands to the display width, and COLOR is defined because
     screen 0 is a colour screen. *)
  check (Alcotest.option Alcotest.string) "WIDTH define" (Some "1152")
    (Config.query1 ctx.Swm_core.Ctx.cfg ~screen:0 "screenWidth");
  check (Alcotest.option Alcotest.string) "COLOR defined" (Some "yes")
    (Config.query1 ctx.Swm_core.Ctx.cfg ~screen:0 "colorful")

(* Resource queries and scans of each of 20 manages, each of a new
   instance of one class, after a first manage of that class. *)
let manage_costs () =
  let module Wm = Swm_core.Wm in
  let module Client_app = Swm_clients.Client_app in
  let server = Server.create () in
  let wm = Wm.start ~resources:[ Swm_core.Templates.open_look ] server in
  let db = Config.db (Wm.ctx wm).Swm_core.Ctx.cfg in
  let manage i =
    let app =
      Client_app.launch server
        (Client_app.spec ~instance:(Printf.sprintf "fresh%d" i) ~class_:"Fresh"
           (Swm_xlib.Geom.rect 40 40 300 200))
    in
    ignore (Wm.step wm);
    Client_app.destroy app;
    ignore (Wm.step wm)
  in
  manage 0;
  List.init 20 (fun i ->
      let queries = Xrdb.queries db and scans = Xrdb.scans db in
      manage (i + 1);
      (Xrdb.queries db - queries, Xrdb.scans db - scans))

let test_manage_scans () =
  (* After the first manage the memo answers every resource query of a
     manage but at most the two client-specific ones. *)
  List.iteri
    (fun i (_, scans) ->
      if scans > 2 then Alcotest.failf "manage %d ran %d scans" (i + 1) scans)
    (manage_costs ())

let test_manage_queries () =
  (* The decoration's attributes come from its class records, and a new
     instance the database does not mention shares its class's memo
     entries: a manage asks for its decoration name, its stickiness and
     two panel definitions, and none of them scans. *)
  List.iteri
    (fun i (queries, scans) ->
      if queries > 4 || scans > 0 then
        Alcotest.failf "manage %d asked %d queries and ran %d scans" (i + 1) queries
          scans)
    (manage_costs ())

(* -------- resolved once against resolved afresh -------- *)

(* Differential property: the toolkit's attribute records and the instance
   normalisation change no outcome.  A random session of manages (shaped
   and sticky ones included), retitles, resizes and database writes runs
   twice: as generated, and with a write that no query can match (an entry
   under another application name) before every operation.  That write
   drops every record and empties the memo, so each read of the second run
   resolves afresh.  Both runs must reach the same window tree, the same
   attribute answers and the same request count, and those answers must
   be what a scan of the final database gives. *)
module Wm = Swm_core.Wm
module Ctx = Swm_core.Ctx
module Wobj = Swm_oi.Wobj
module Client_app = Swm_clients.Client_app
module Geom = Swm_xlib.Geom
module Region = Swm_xlib.Region

type session_op =
  | Manage of int * int * bool  (* instance, class, shaped *)
  | Retitle of int * int  (* client, title *)
  | Resize of int * int * int  (* client, width, height *)
  | Write of int  (* an entry of [session_writes] *)

let session_instances = [| "ed"; "mail"; "clock"; "term"; "calc" |]
let session_classes = [| "Ed"; "Mail"; "XClock" |]
let session_titles = [| "x"; "a longer title"; "name"; "" |]

let session_resources =
  [
    Swm_core.Templates.open_look;
    "swm*virtualDesktop: False\nswm*rootPanels:\n\
     Swm*panel.plain: button name +0+0 panel client +0+1\n\
     swm*clock*sticky: True\n";
  ]

(* Decoration redefinitions, attribute edits, and entries naming instances
   that later manages use. *)
let session_writes =
  [|
    ("swm*panel.openLook", "button pulldown +0+0 button name +C+0 panel client +0+1");
    ("swm*panel.openLook", "button name +0+0 button nail -0+0 panel client +0+1");
    ("swm*decoration", "plain");
    ("swm*decoration", "openLook");
    ("swm*button.name.width", "120");
    ("swm*button.name.width", "30");
    ("swm*button.nail.image", "mail");
    ("swm*button.name.image", "xlogo32");
    ("swm*panel.openLook.shape", "True");
    ("swm*panel.plain.shape", "True");
    ("swm*button.name.bindings", "<Btn1> : f.lower");
    ("swm*term.decoration", "plain");
    ("swm*mail*sticky", "True");
    ("swm*calc.decoration", "none");
    ("swm*Ed*decoration", "plain");
    ("swm*sticky*decoration", "plain");
    ("swm*shaped*decoration", "plain");
  |]

let session_attrs = [ "width"; "image"; "shape"; "shapeMask"; "bindings"; "background" ]

let show_session_op = function
  | Manage (i, c, shaped) ->
      Printf.sprintf "manage %s/%s%s" session_instances.(i) session_classes.(c)
        (if shaped then " shaped" else "")
  | Retitle (k, t) -> Printf.sprintf "retitle %d %S" k session_titles.(t)
  | Resize (k, w, h) -> Printf.sprintf "resize %d %dx%d" k w h
  | Write j ->
      let spec, value = session_writes.(j) in
      Printf.sprintf "write %s: %s" spec value

let session_op_gen =
  QCheck2.Gen.(
    frequency
      [
        ( 3,
          map3
            (fun i c shaped -> Manage (i, c, shaped))
            (int_bound (Array.length session_instances - 1))
            (int_bound (Array.length session_classes - 1))
            (frequency [ (1, return true); (3, return false) ]) );
        ( 2,
          map2 (fun k t -> Retitle (k, t)) (int_bound 7)
            (int_bound (Array.length session_titles - 1)) );
        ( 1,
          map3
            (fun k w h -> Resize (k, w, h))
            (int_bound 7) (int_range 40 400) (int_range 40 300) );
        (3, map (fun j -> Write j) (int_bound (Array.length session_writes - 1)));
      ])

(* The window tree under [win], children bottom-to-top: geometry, border,
   map state, label, character art and shape of every window. *)
let rec window_tree server win =
  let g = Server.geometry server win in
  Printf.sprintf "(%d,%d %dx%d b%d %b %S [%s] {%s} %s)" g.x g.y g.w g.h
    (Server.border_width server win) (Server.is_mapped server win)
    (Option.value ~default:"-" (Server.label_of server win))
    (String.concat "/" (Option.value ~default:[] (Server.art_of server win)))
    (match Server.shape_get server win with
    | Some region ->
        String.concat ";"
          (List.map
             (fun (r : Geom.rect) -> Printf.sprintf "%d,%d,%d,%d" r.x r.y r.w r.h)
             (Region.rects region))
    | None -> "-")
    (String.concat " " (List.map (window_tree server) (Server.children_of server win)))

(* Each attribute of each object of a tree, as [read] answers it. *)
let rec object_attrs read obj =
  List.map (fun a -> Option.value ~default:"-" (read obj a)) session_attrs
  @ List.concat_map (object_attrs read) (Wobj.children obj)

(* [unmatched] is the write made before every operation, or none. *)
let run_session ~unmatched ops =
  let server = Server.create () in
  let wm = Wm.start ~resources:session_resources server in
  let ctx = Wm.ctx wm in
  let db = Config.db ctx.Ctx.cfg in
  let writes = ref 0 in
  let before_op () =
    if unmatched then begin
      incr writes;
      Xrdb.put db (Printf.sprintf "otherApp.unmatched%d" !writes) "1"
    end
  in
  let apps = ref [||] in
  let nth k = !apps.(k mod Array.length !apps) in
  List.iter
    (fun op ->
      before_op ();
      (match op with
      | Manage (i, c, shaped) ->
          let geom = Geom.rect 40 40 200 120 in
          let app =
            Client_app.launch server
              (Client_app.spec ~instance:session_instances.(i)
                 ~class_:session_classes.(c) ~us_position:true geom)
          in
          if shaped then
            Server.shape_set server (Client_app.conn app) (Client_app.window app)
              (Region.disc ~cx:100 ~cy:60 ~r:60);
          apps := Array.append !apps [| app |]
      | Retitle (k, t) when !apps <> [||] ->
          Client_app.set_name (nth k) session_titles.(t)
      | Resize (k, w, h) when !apps <> [||] -> Client_app.resize_self (nth k) (w, h)
      | Retitle _ | Resize _ -> ()
      | Write j ->
          let spec, value = session_writes.(j) in
          Xrdb.put db spec value);
      ignore (Wm.step wm))
    ops;
  before_op ();
  let attrs read =
    Array.to_list !apps
    |> List.concat_map (fun app ->
           match Wm.find_client wm (Client_app.window app) with
           | Some { Ctx.deco = Some deco; _ } -> object_attrs read deco
           | Some _ | None -> [ "undecorated" ])
  in
  (* A copy's memo starts empty, so every answer of [fresh] is a scan. *)
  let fresh = Config.create (Xrdb.copy db) server in
  let scanned obj a =
    let kind = Wobj.kind obj and name = Wobj.name obj in
    Config.object_query fresh ~screen:0
      ~names:[ Wobj.kind_name kind; name; a ]
      ~classes:
        [ Wobj.kind_class kind; String.capitalize_ascii name; String.capitalize_ascii a ]
  in
  ( window_tree server (Server.root server ~screen:0),
    (attrs Wobj.attr, attrs scanned),
    Server.request_count server )

let prop_records_match_fresh =
  QCheck2.Test.make ~name:"records and normalisation match fresh resolution"
    ~count:150
    ~print:(fun ops -> String.concat "; " (List.map show_session_op ops))
    QCheck2.Gen.(list_size (int_range 1 20) session_op_gen)
    (fun ops ->
      let ((_, (answers, scanned), _) as cached) = run_session ~unmatched:false ops in
      answers = scanned && cached = run_session ~unmatched:true ops)

let suite =
  [
    Alcotest.test_case "per-screen scoping" `Quick test_per_screen;
    Alcotest.test_case "#include template by name" `Quick
      test_include_template_by_name;
    Alcotest.test_case "loose binding spans screens" `Quick test_loose_applies_everywhere;
    Alcotest.test_case "specific resource (paper syntax)" `Quick
      test_specific_resource_paper_syntax;
    Alcotest.test_case "class vs instance" `Quick test_class_vs_instance;
    Alcotest.test_case "shaped prefix" `Quick test_shaped_prefix;
    Alcotest.test_case "sticky prefix" `Quick test_sticky_prefix;
    Alcotest.test_case "swm beats Swm" `Quick test_swm_over_Swm;
    Alcotest.test_case "panel definitions" `Quick test_panel_definition;
    Alcotest.test_case "shipped templates parse" `Quick test_templates_load;
    Alcotest.test_case "a manage scans at most twice" `Quick test_manage_scans;
    Alcotest.test_case "a known class's manage asks 4 queries, no scans" `Quick
      test_manage_queries;
    QCheck_alcotest.to_alcotest prop_records_match_fresh;
  ]

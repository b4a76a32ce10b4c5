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

let test_manage_scans () =
  (* After the first manage the memo answers every resource query of a
     manage except the client-specific ones, whose instance is new. *)
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
  for i = 1 to 20 do
    let before = Xrdb.scans db in
    manage i;
    let scans = Xrdb.scans db - before in
    if scans > 2 then Alcotest.failf "manage %d ran %d scans" i scans
  done

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
  ]

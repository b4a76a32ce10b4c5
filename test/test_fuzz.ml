(* Randomised invariant testing.

   Two levels: (1) random request sequences against the bare X server must
   preserve the window-tree invariants; (2) random client workloads driven
   through the full window manager must leave every managed client in a
   coherent state (decorated, parented where its stickiness says, iconic
   windows hidden, panner miniatures consistent). *)

module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid
module Prop = Swm_xlib.Prop
module Event = Swm_xlib.Event
module Wm = Swm_core.Wm
module Ctx = Swm_core.Ctx
module Vdesk = Swm_core.Vdesk
module Icons = Swm_core.Icons
module Templates = Swm_core.Templates
module Client_app = Swm_clients.Client_app
module Stock = Swm_clients.Stock

(* -------- level 1: the server -------- *)

type server_op =
  | Create of int  (* parent index into live windows *)
  | Create_selecting of int * int  (* parent, gravity: masks and gravity in the create *)
  | Map_subwindows of int
  | Resize of int * int * int  (* children move by their gravity *)
  | Destroy of int
  | Map of int
  | Unmap of int
  | Raise of int
  | Lower of int
  | Reparent of int * int
  | Move of int * int * int
  | SetProp of int
  | Warp of int * int

let op_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun i -> Create i) (int_range 0 50);
        map (fun (i, g) -> Create_selecting (i, g)) (pair (int_range 0 50) (int_range 0 3));
        map (fun i -> Map_subwindows i) (int_range 0 50);
        map (fun ((a, w), h) -> Resize (a, w, h))
          (pair (pair (int_range 0 50) (int_range 1 400)) (int_range 1 300));
        map (fun i -> Destroy i) (int_range 0 50);
        map (fun i -> Map i) (int_range 0 50);
        map (fun i -> Unmap i) (int_range 0 50);
        map (fun i -> Raise i) (int_range 0 50);
        map (fun i -> Lower i) (int_range 0 50);
        map (fun (a, b) -> Reparent (a, b)) (pair (int_range 0 50) (int_range 0 50));
        map (fun ((a, x), y) -> Move (a, x, y))
          (pair (pair (int_range 0 50) (int_range (-200) 1200)) (int_range (-200) 1000));
        map (fun i -> SetProp i) (int_range 0 50);
        map (fun (x, y) -> Warp (x, y)) (pair (int_range 0 1200) (int_range 0 900));
      ])

(* Is [anc] an ancestor of [w]? Guards reparent cycles. *)
let rec is_ancestor server anc w =
  (not (Xid.is_none w))
  && (Xid.equal anc w
     ||
     let p = Server.parent_of server w in
     (not (Xid.is_none p)) && is_ancestor server anc p)

let apply_op server conn live op =
  let pick i = List.nth live (i mod List.length live) in
  match op with
  | Create i ->
      let parent = pick i in
      let w =
        Server.create_window server conn ~parent ~geom:(Geom.rect 5 5 60 40) ()
      in
      w :: live
  | Create_selecting (i, g) ->
      let parent = pick i in
      let gravity =
        List.nth
          Server.[ North_west; North_east; South_west; South_east ]
          g
      in
      let w =
        Server.create_window server conn ~parent ~geom:(Geom.rect 5 5 60 40)
          ~event_mask:[ Event.Structure_notify; Event.Exposure_mask ] ~gravity ()
      in
      w :: live
  | Map_subwindows i ->
      Server.map_subwindows server conn (pick i);
      live
  | Resize (a, w, h) ->
      let win = pick a in
      if Xid.equal win (Server.root server ~screen:0) then live
      else begin
        let g = Server.geometry server win in
        Server.move_resize server conn win { g with Geom.w; h };
        live
      end
  | Destroy i ->
      let w = pick i in
      let root = Server.root server ~screen:0 in
      if Xid.equal w root then live
      else begin
        Server.destroy_window server w;
        List.filter (fun v -> Server.window_exists server v) live
      end
  | Map i ->
      Server.map_window server conn (pick i);
      live
  | Unmap i ->
      Server.unmap_window server conn (pick i);
      live
  | Raise i ->
      Server.raise_window server conn (pick i);
      live
  | Lower i ->
      Server.lower_window server conn (pick i);
      live
  | Reparent (a, b) ->
      let w = pick a and target = pick b in
      let root = Server.root server ~screen:0 in
      if Xid.equal w root || is_ancestor server w target then live
      else begin
        Server.reparent_window server conn w ~new_parent:target
          ~pos:(Geom.point 3 3);
        live
      end
  | Move (a, x, y) ->
      let w = pick a in
      if Xid.equal w (Server.root server ~screen:0) then live
      else begin
        let g = Server.geometry server w in
        Server.move_resize server conn w { g with Geom.x; y };
        live
      end
  | SetProp i ->
      Server.change_property server conn (pick i) ~name:"FUZZ" (Prop.Cardinal 1);
      live
  | Warp (x, y) ->
      Server.warp_pointer server ~screen:0 (Geom.point x y);
      live

let server_invariants server =
  let ok = ref true in
  let fail _msg = ok := false in
  List.iter
    (fun w ->
      let parent = Server.parent_of server w in
      if Xid.is_none parent then begin
        (* Must be a root. *)
        if not (Xid.equal w (Server.root server ~screen:0)) then fail "orphan"
      end
      else begin
        if not (Server.window_exists server parent) then fail "dangling parent";
        (* parent/children agree *)
        if not (List.exists (Xid.equal w) (Server.children_of server parent)) then
          fail "not in parent's children"
      end;
      (* children all exist and point back *)
      List.iter
        (fun c ->
          if not (Server.window_exists server c) then fail "dangling child";
          if not (Xid.equal (Server.parent_of server c) w) then fail "child disagrees")
        (Server.children_of server w);
      (* no duplicate children *)
      let children = List.map Xid.to_int (Server.children_of server w) in
      if List.length children <> List.length (List.sort_uniq compare children) then
        fail "duplicate children")
    (Server.all_windows server);
  (* hit-testing total: never raises, always lands on an existing window *)
  let at = Server.window_at_pointer server in
  if not (Server.window_exists server at) then fail "window_at_pointer dangling";
  !ok

let prop_server_fuzz =
  QCheck2.Test.make ~name:"server invariants under random requests" ~count:100
    QCheck2.Gen.(list_size (int_range 1 80) op_gen)
    (fun ops ->
      let server = Server.create () in
      let conn = Server.connect server ~name:"fuzz" in
      let root = Server.root server ~screen:0 in
      let live =
        List.fold_left (fun live op -> apply_op server conn live op) [ root ] ops
      in
      ignore live;
      ignore (Server.flush_batch conn);
      server_invariants server)

(* -------- level 2: the window manager -------- *)

type wm_op =
  | Launch of int  (* which stock client *)
  | Close of int  (* index into launched *)
  | Iconify of int
  | Deiconify of int
  | ToggleSticky of int
  | Pan of int * int
  | RaiseIt of int
  | ResizeClient of int * int * int
  | SwitchDesktop of int
  | DragTitle of int * int * int  (* client index, dx, dy *)
  | Swmcmd_line of int  (* index into a fixed command list *)

let wm_op_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun i -> Launch i) (int_range 0 3);
        map (fun i -> Close i) (int_range 0 30);
        map (fun i -> Iconify i) (int_range 0 30);
        map (fun i -> Deiconify i) (int_range 0 30);
        map (fun i -> ToggleSticky i) (int_range 0 30);
        map (fun (x, y) -> Pan (x, y)) (pair (int_range 0 2400) (int_range 0 1800));
        map (fun i -> RaiseIt i) (int_range 0 30);
        map (fun ((i, w), h) -> ResizeClient (i, 32 + w, 32 + h))
          (pair (pair (int_range 0 30) (int_range 0 500)) (int_range 0 400));
        map (fun i -> SwitchDesktop i) (int_range 0 2);
        map (fun ((i, dx), dy) -> DragTitle (i, dx, dy))
          (pair (pair (int_range 0 30) (int_range (-300) 300)) (int_range (-300) 300));
        map (fun i -> Swmcmd_line i) (int_range 0 5);
      ])

let wm_invariants server wm ctx =
  let ok = ref true in
  let fail _msg = ok := false in
  List.iter
    (fun (client : Ctx.client) ->
      if not (Server.window_exists server client.Ctx.cwin) then fail "stale client"
      else begin
        (* The frame exists and the client is inside it (or is it). *)
        if not (Server.window_exists server client.Ctx.frame) then fail "stale frame";
        (* Stickiness determines the frame's parent. *)
        let parent = Server.parent_of server client.Ctx.frame in
        let expected =
          Vdesk.effective_parent ctx ~screen:client.Ctx.screen
            ~sticky:client.Ctx.sticky
        in
        (* Frames on non-current desktops are still desktop windows. *)
        let parent_ok =
          Xid.equal parent expected
          || Vdesk.is_desktop_window ctx ~screen:client.Ctx.screen parent
        in
        if not parent_ok then fail "frame parent";
        match client.Ctx.state with
        | Prop.Iconic ->
            if Server.is_viewable server client.Ctx.frame then
              fail "iconic but visible";
            (match client.Ctx.icon_obj with
            | Some icon ->
                if not (Swm_oi.Wobj.is_realized icon) then fail "icon unrealized"
            | None -> fail "iconic without icon")
        | Prop.Normal ->
            if client.Ctx.icon_obj <> None then fail "normal with icon";
            (* WM_STATE property must agree. *)
            (match
               Server.get_property server client.Ctx.cwin ~name:Prop.wm_state_name
             with
            | Some (Prop.Wm_state_value { state = Prop.Normal; _ }) -> ()
            | _ -> fail "WM_STATE mismatch")
        | Prop.Withdrawn -> fail "managed but withdrawn"
      end)
    (Ctx.all_clients ctx);
  ignore wm;
  !ok

let prop_wm_fuzz =
  QCheck2.Test.make ~name:"WM invariants under random workloads" ~count:40
    QCheck2.Gen.(list_size (int_range 1 60) wm_op_gen)
    (fun ops ->
      let server = Server.create () in
      let wm =
        Wm.start
          ~resources:
            [ Templates.open_look; "swm*rootPanels:\nswm*desktops: 3\n" ]
          server
      in
      let ctx = Wm.ctx wm in
      let launched = ref [] in
      let counter = ref 0 in
      let pick i =
        match !launched with
        | [] -> None
        | l -> Some (List.nth l (i mod List.length l))
      in
      let client_of app = Wm.find_client wm (Client_app.window app) in
      List.iter
        (fun op ->
          (match op with
          | Launch kind ->
              incr counter;
              let at = Geom.point (37 * !counter mod 900) (53 * !counter mod 700) in
              let app =
                match kind with
                | 0 -> Stock.xterm server ~at ~instance:(Printf.sprintf "xt%d" !counter) ()
                | 1 -> Stock.xclock server ~at ()
                | 2 -> Stock.oclock server ~at ()
                | _ -> Stock.xlogo server ~at ()
              in
              launched := app :: !launched
          | Close i -> (
              match pick i with
              | Some app when Server.window_exists server (Client_app.window app) ->
                  Client_app.destroy app;
                  launched := List.filter (fun a -> a != app) !launched
              | Some _ | None -> ())
          | Iconify i -> (
              match Option.bind (pick i) client_of with
              | Some client -> Icons.iconify ctx client
              | None -> ())
          | Deiconify i -> (
              match Option.bind (pick i) client_of with
              | Some client -> Icons.deiconify ctx client
              | None -> ())
          | ToggleSticky i -> (
              match Option.bind (pick i) client_of with
              | Some client -> Vdesk.set_sticky ctx client (not client.Ctx.sticky)
              | None -> ())
          | Pan (x, y) -> Vdesk.pan_to ctx ~screen:0 (Geom.point x y)
          | RaiseIt i -> (
              match Option.bind (pick i) client_of with
              | Some client -> Server.raise_window server ctx.Ctx.conn client.Ctx.frame
              | None -> ())
          | ResizeClient (i, w, h) -> (
              match pick i with
              | Some app when Server.window_exists server (Client_app.window app) ->
                  Client_app.resize_self app (w, h)
              | Some _ | None -> ())
          | SwitchDesktop n -> Vdesk.switch_desktop ctx ~screen:0 n
          | DragTitle (i, dx, dy) -> (
              match Option.bind (pick i) client_of with
              | Some client
                when Server.window_exists server client.Ctx.frame
                     && Server.is_viewable server client.Ctx.frame -> (
                  match client.Ctx.deco with
                  | Some deco -> (
                      match Swm_oi.Wobj.find_descendant deco ~name:"name" with
                      | Some name_obj when Swm_oi.Wobj.is_realized name_obj ->
                          let abs =
                            Server.root_geometry server (Swm_oi.Wobj.window name_obj)
                          in
                          Server.warp_pointer server ~screen:0
                            (Geom.point (abs.x + 2) (abs.y + 2));
                          ignore (Wm.step wm);
                          Server.press_button server 1;
                          ignore (Wm.step wm);
                          Server.warp_pointer server ~screen:0
                            (Geom.point (abs.x + 2 + dx) (abs.y + 2 + dy));
                          ignore (Wm.step wm);
                          Server.release_button server 1
                      | Some _ | None -> ())
                  | None -> ())
              | Some _ | None -> ())
          | Swmcmd_line i ->
              let commands =
                [| "f.circulateUp"; "f.iconify(XTerm)"; "f.deiconify(XTerm)";
                   "f.panTo(0,0)"; "f.refresh"; "f.unpostMenu" |]
              in
              let sender = ctx.Ctx.conn in
              Swm_core.Swmcmd.send server sender ~screen:0
                commands.(i mod Array.length commands));
          ignore (Wm.step wm))
        ops;
      ignore (Wm.step wm);
      wm_invariants server wm ctx)

(* A deterministic long soak: one fixed 500-op workload driven through the
   full WM, invariants checked at the end.  Catches slow state leaks the
   shorter random runs may miss, and is reproducible by construction. *)
let test_soak () =
  let server = Server.create () in
  let wm =
    Wm.start
      ~resources:[ Templates.open_look; "swm*rootPanels:\nswm*desktops: 2\n" ]
      server
  in
  let ctx = Wm.ctx wm in
  let launched = ref [] in
  let counter = ref 0 in
  let client_of app = Wm.find_client wm (Client_app.window app) in
  for i = 0 to 499 do
    (match i mod 9 with
    | 0 ->
        incr counter;
        let at = Geom.point (29 * !counter mod 1000) (41 * !counter mod 800) in
        launched := Stock.xterm server ~at ~instance:(Printf.sprintf "s%d" !counter) ()
                    :: !launched
    | 1 -> (
        match !launched with
        | app :: rest when i mod 27 = 1 ->
            if Server.window_exists server (Client_app.window app) then
              Client_app.destroy app;
            launched := rest
        | _ -> ())
    | 2 -> (
        match !launched with
        | app :: _ -> (
            match client_of app with
            | Some c -> Icons.iconify ctx c
            | None -> ())
        | [] -> ())
    | 3 -> (
        match !launched with
        | app :: _ -> (
            match client_of app with
            | Some c -> Icons.deiconify ctx c
            | None -> ())
        | [] -> ())
    | 4 -> Vdesk.pan_to ctx ~screen:0 (Geom.point (i * 7 mod 2300) (i * 11 mod 1800))
    | 5 -> (
        match !launched with
        | app :: _ -> (
            match client_of app with
            | Some c -> Vdesk.set_sticky ctx c (not c.Ctx.sticky)
            | None -> ())
        | [] -> ())
    | 6 -> Vdesk.switch_desktop ctx ~screen:0 (i / 9 mod 2)
    | 7 -> (
        match !launched with
        | app :: _ when Server.window_exists server (Client_app.window app) ->
            Client_app.resize_self app (100 + (i mod 400), 80 + (i mod 300))
        | _ -> ())
    | _ -> Swm_core.Panner.refresh ctx ~screen:0);
    ignore (Wm.step wm)
  done;
  ignore (Wm.step wm);
  Alcotest.(check bool) "soak invariants" true (wm_invariants server wm ctx);
  (* No window leak: everything alive is accounted for by a client, a
     decoration, WM furniture, or the roots. *)
  Alcotest.(check bool) "window population sane" true
    (Server.window_count server < 2000)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_server_fuzz;
    QCheck_alcotest.to_alcotest prop_wm_fuzz;
    Alcotest.test_case "deterministic 500-op soak" `Quick test_soak;
  ]

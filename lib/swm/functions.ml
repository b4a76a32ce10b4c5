module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid
module Prop = Swm_xlib.Prop
module Wobj = Swm_oi.Wobj
module Menu = Swm_oi.Menu
module Panel_spec = Swm_oi.Panel_spec
module Metrics = Swm_xlib.Metrics
module Ring = Swm_xlib.Ring
module Event = Swm_xlib.Event
module Tracing = Swm_xlib.Tracing
module Recorder = Swm_xlib.Recorder
module Replay = Swm_xlib.Replay
module Profile = Swm_xlib.Profile
module Xrdb = Swm_xrdb.Xrdb

type invocation = {
  inv_obj : Wobj.t option;
  inv_client : Ctx.client option;
  inv_screen : int;
}

let invocation ?obj ?client ~screen () =
  { inv_obj = obj; inv_client = client; inv_screen = screen }

(* Functions whose argument is data, not a window-selection mode.
   f.metrics lives here (not with the nullaries) so it can take an optional
   format argument; a bare "f.metrics" still works, the data path just sees
   no argument. *)
let data_arg_functions =
  [
    "f.warpvertical"; "f.warphorizontal"; "f.pan"; "f.panto"; "f.desktop";
    "f.menu"; "f.exec"; "f.places"; "f.autosave"; "f.resizedesktop"; "f.setlabel";
    "f.setbindings"; "f.warpto"; "f.scrollholder"; "f.function"; "f.trace";
    "f.metrics"; "f.flightdump"; "f.replay"; "f.profile"; "f.flame";
    "f.fate"; "f.waterfall";
  ]

(* f.replay must start a fresh WM, which lives above this module in the
   dependency order; Wm installs the real runner at link time. *)
let replay_runner : (Replay.report -> Replay.outcome) ref =
  ref (fun _ ->
      Replay.Crashed
        { op_index = 0; op = "(none)"; error = "no replay runner installed" })

let set_replay_runner f = replay_runner := f

let window_functions =
  [
    "f.raise"; "f.lower"; "f.raiselower"; "f.iconify"; "f.deiconify"; "f.move";
    "f.resize"; "f.zoom"; "f.save"; "f.stick"; "f.unstick"; "f.delete"; "f.focus";
    "f.identify";
  ]

let nullary_functions =
  [ "f.quit"; "f.restart"; "f.refresh"; "f.unpostmenu"; "f.circulateup";
    "f.circulatedown"; "f.slowlog"; "f.health"; "f.stats" ]

let function_names = window_functions @ data_arg_functions @ nullary_functions

let canon name = String.lowercase_ascii name
let known name = List.mem (canon name) function_names

(* -------- target resolution -------- *)

let rec client_of_window_or_ancestor (ctx : Ctx.t) win =
  if Xid.is_none win then None
  else
    match Ctx.client_of_window ctx win with
    | Some _ as found -> found
    | None ->
        if Server.window_exists ctx.server win then
          client_of_window_or_ancestor ctx (Server.parent_of ctx.server win)
        else None

let client_under_pointer (ctx : Ctx.t) =
  client_of_window_or_ancestor ctx (Server.window_at_pointer ctx.server)

type targets = Clients of Ctx.client list | Needs_prompt

let resolve_targets (ctx : Ctx.t) inv (f : Bindings.func_call) =
  match f.farg with
  | None -> (
      match inv.inv_client with
      | Some c -> Clients [ c ]
      | None -> Needs_prompt)
  | Some "multiple" ->
      Clients
        (List.filter (fun (c : Ctx.client) -> ctx.confirm c.wm_name)
           (Ctx.all_clients ctx))
  | Some "#$" -> (
      match client_under_pointer ctx with
      | Some c -> Clients [ c ]
      | None -> Clients [])
  | Some arg when String.length arg > 1 && arg.[0] = '#' -> (
      let id_text = String.sub arg 1 (String.length arg - 1) in
      match int_of_string_opt id_text with
      | Some id -> (
          match Ctx.client_of_window ctx (Xid.of_int id) with
          | Some c -> Clients [ c ]
          | None -> Clients [])
      | None -> Clients [])
  | Some class_arg -> Clients (Ctx.clients_of_class ctx class_arg)

(* -------- menus -------- *)

let find_menu (ctx : Ctx.t) ~screen name =
  let scr = Ctx.screen ctx screen in
  match List.assoc_opt name scr.menus with
  | Some menu -> Some menu
  | None -> (
      let lookup n =
        match Config.menu_definition ctx.cfg ~screen n with
        | Some _ as def -> def
        | None -> Config.panel_definition ctx.cfg ~screen n
      in
      match Panel_spec.build scr.tk ~lookup ~kind:Wobj.Menu ~name with
      | Error _ -> None
      | Ok obj ->
          let menu = Menu.create scr.tk obj in
          scr.menus <- (name, menu) :: scr.menus;
          Some menu)

let unpost_menu (ctx : Ctx.t) ~screen =
  let scr = Ctx.screen ctx screen in
  match scr.active_menu with
  | Some (menu, _) ->
      Menu.unpost menu;
      scr.active_menu <- None
  | None -> ()

let post_menu (ctx : Ctx.t) inv name =
  let screen = inv.inv_screen in
  unpost_menu ctx ~screen;
  match find_menu ctx ~screen name with
  | None -> ()
  | Some menu ->
      let pos = Server.pointer_pos ctx.server in
      Menu.post menu ~at:pos;
      (Ctx.screen ctx screen).active_menu <- Some (menu, inv.inv_client)

(* -------- zoom -------- *)

let save_geometry (ctx : Ctx.t) (client : Ctx.client) =
  let cgeom = Server.geometry ctx.server client.cwin in
  client.zoom_saved <-
    Some (Server.geometry ctx.server client.frame, (cgeom.w, cgeom.h))

(* f.save followed by f.zoom expands; f.zoom on an already-expanded window
   (the frame no longer matches the save) restores. *)
let zoom (ctx : Ctx.t) (client : Ctx.client) =
  (match client.zoom_saved with
  | Some (saved_frame, (cw, ch))
    when not (Geom.rect_equal saved_frame (Server.geometry ctx.server client.frame)) ->
      Decoration.client_resized ctx client (cw, ch);
      Server.move_resize ctx.server ctx.conn client.frame saved_frame;
      client.zoom_saved <- None;
      Icccm.send_synthetic_configure ctx client
  | Some _ | None ->
      if client.zoom_saved = None then save_geometry ctx client;
      let fgeom = Server.geometry ctx.server client.frame in
      let sw, sh = Server.screen_size ctx.server ~screen:client.screen in
      let origin = Geom.point 0 0 in
      (* Zoom fills the screen: viewport-relative origin; inside the desktop
         that is the viewport's top-left. *)
      let vp = Vdesk.viewport ctx ~screen:client.screen in
      let origin = if client.sticky then origin else Geom.point vp.x vp.y in
      let cgeom = Server.geometry ctx.server client.cwin in
      let deco_w = fgeom.w - cgeom.w and deco_h = fgeom.h - cgeom.h in
      Decoration.client_resized ctx client
        (max 16 (sw - deco_w - 2), max 16 (sh - deco_h - 2));
      let fgeom' = Server.geometry ctx.server client.frame in
      Server.move_resize ctx.server ctx.conn client.frame
        { fgeom' with Geom.x = origin.px; y = origin.py })

(* -------- stickiness -------- *)

let set_sticky_and_redecorate (ctx : Ctx.t) (client : Ctx.client) sticky =
  if client.sticky <> sticky then begin
    let before = Decoration.decoration_name ctx client in
    Vdesk.set_sticky ctx client sticky;
    let after = Decoration.decoration_name ctx client in
    if before <> after then Decoration.redecorate ctx client
  end

(* -------- session -------- *)

let places_hints (ctx : Ctx.t) =
  List.filter_map
    (fun (client : Ctx.client) ->
      if Panner.is_panner ctx client then None
      else
        match Icccm.read_command ctx client.cwin with
        | None -> None
        | Some command ->
            let fgeom = Server.geometry ctx.server client.frame in
            let cgeom = Server.geometry ctx.server client.cwin in
            Some
              {
                Session.geometry = Geom.rect fgeom.x fgeom.y cgeom.w cgeom.h;
                icon_geometry = client.icon_pos;
                state = (match client.state with Prop.Withdrawn -> Prop.Normal | s -> s);
                sticky = client.sticky;
                command;
                host = Icccm.read_client_machine ctx client.cwin;
              })
    (List.sort
       (fun (a : Ctx.client) b -> Xid.compare a.cwin b.cwin)
       (Ctx.all_clients ctx))

let places_content (ctx : Ctx.t) =
  let remote_format = Config.query1 ctx.cfg ~screen:0 "remoteStartFormat" in
  let content =
    Session.places_file ?remote_format ~display:ctx.display ~local_host:ctx.host
      (places_hints ctx)
  in
  ctx.last_places <- Some content;
  content

let places (ctx : Ctx.t) ~file_arg =
  let content = places_content ctx in
  let path =
    match file_arg with
    | Some p when p <> "" -> Some p
    | Some _ | None -> Config.query1 ctx.cfg ~screen:0 "placesFile"
  in
  match path with
  | None -> ()
  | Some path -> Recorder.write_atomic ~path content

(* The periodic crash-safety snapshot: same content as f.places, always
   written atomically, to the autosaveFile (or the explicit argument). *)
let autosave (ctx : Ctx.t) ~file_arg =
  let path =
    match file_arg with
    | Some p when p <> "" -> Some p
    | Some _ | None -> ctx.autosave_path
  in
  match path with
  | None -> ()
  | Some path ->
      let content = places_content ctx in
      Recorder.write_atomic ~path content;
      ctx.autosave_pending <- 0;
      Metrics.incr (Metrics.counter (Server.metrics ctx.server) "session.autosaves");
      let tracer = Server.tracer ctx.server in
      if Tracing.enabled tracer then
        Tracing.instant tracer "session.autosave" ~attrs:[ ("path", path) ]

(* -------- single-function execution on one client -------- *)

let run_on_client (ctx : Ctx.t) name (client : Ctx.client) =
  Ctx.log ctx "%s on %s (win=%a)" name client.instance Xid.pp client.cwin;
  match name with
  | "f.raise" -> Ctx.restack ctx client Event.Above
  | "f.lower" -> Ctx.restack ctx client Event.Below
  | "f.raiselower" ->
      let parent = Server.parent_of ctx.server client.frame in
      let on_top = Xid.equal (Server.top_child ctx.server parent) client.frame in
      Ctx.restack ctx client (if on_top then Event.Below else Event.Above)
  | "f.iconify" -> Icons.iconify ctx client
  | "f.deiconify" -> Icons.deiconify ctx client
  | "f.zoom" -> zoom ctx client
  | "f.save" -> if client.zoom_saved = None then save_geometry ctx client
  | "f.stick" -> set_sticky_and_redecorate ctx client (not client.sticky)
  | "f.unstick" -> set_sticky_and_redecorate ctx client false
  | "f.delete" -> (
      (* ICCCM: clients speaking WM_DELETE_WINDOW are asked politely;
         everything else is destroyed. *)
      if Server.window_exists ctx.server client.cwin then
        match Server.get_property ctx.server client.cwin ~name:Prop.wm_protocols with
        | Some (Prop.Atom_list protocols)
          when List.mem Prop.wm_delete_window protocols ->
            Server.send_event ctx.server ctx.conn ~dest:client.cwin
              (Swm_xlib.Event.Client_message
                 {
                   window = client.cwin;
                   name = Prop.wm_protocols;
                   data = Prop.wm_delete_window;
                 })
        | Some _ | None -> Server.destroy_window ctx.server client.cwin)
  | "f.focus" -> Server.set_input_focus ctx.server ctx.conn client.cwin
  | "f.identify" ->
      (* twm-style window information popup at the pointer; dismissed by
         the next button press. *)
      if
        (not (Xid.is_none ctx.identify_win))
        && Server.window_exists ctx.server ctx.identify_win
      then Server.destroy_window ctx.server ctx.identify_win;
      let cgeom = Server.geometry ctx.server client.cwin in
      let fgeom = Server.geometry ctx.server client.frame in
      let info =
        Printf.sprintf "%s.%s %dx%d%+d%+d %s%s" client.instance client.class_
          cgeom.w cgeom.h fgeom.x fgeom.y
          (Prop.wm_state_to_string client.state)
          (if client.sticky then " sticky" else "")
      in
      let pointer = Server.pointer_pos ctx.server in
      let scr = Ctx.screen ctx client.screen in
      let popup =
        Server.create_window ctx.server ctx.conn ~parent:scr.root
          ~geom:
            (Geom.rect pointer.px pointer.py ((String.length info * 8) + 8) 24)
          ~border:1 ~override_redirect:true ~background:' ' ~label:info ()
      in
      Server.raise_window ctx.server ctx.conn popup;
      Server.map_window ctx.server ctx.conn popup;
      ctx.identify_win <- popup
  | "f.move" ->
      let pointer = Server.pointer_pos ctx.server in
      (* Offset measured from the frame's border corner, which is what the
         geometry refers to. *)
      let abs = Server.root_geometry ctx.server client.frame in
      let origin = Geom.point abs.x abs.y in
      let opaque =
        match Config.query1 ctx.cfg ~screen:client.screen "opaqueMove" with
        | Some v -> (
            match String.lowercase_ascii (String.trim v) with
            | "false" | "no" | "off" | "0" -> false
            | _ -> true)
        | None -> true
      in
      let m_outline =
        if opaque then Xid.none
        else begin
          (* A border-only outline tracks the pointer; the window itself
             moves only on release (paper §6.1's "full size outline"). *)
          let fgeom = Server.geometry ctx.server client.frame in
          let parent = Server.parent_of ctx.server client.frame in
          let outline =
            Server.create_window ctx.server ctx.conn ~parent ~geom:fgeom ~border:1
              ~override_redirect:true ()
          in
          Server.raise_window ctx.server ctx.conn outline;
          Server.map_window ctx.server ctx.conn outline;
          outline
        end
      in
      ctx.mode <-
        Ctx.Moving
          {
            m_client = client;
            grab_offset = Geom.point (pointer.px - origin.px) (pointer.py - origin.py);
            m_outline;
          };
      Server.grab_pointer ctx.server ctx.conn client.frame
  | "f.resize" ->
      let cgeom = Server.geometry ctx.server client.cwin in
      ctx.mode <-
        Ctx.Resizing
          {
            r_client = client;
            r_start_client = (cgeom.w, cgeom.h);
            r_pointer = Server.pointer_pos ctx.server;
            r_dir = Geom.point 1 1;
            r_frame0 = Server.geometry ctx.server client.frame;
          };
      Server.grab_pointer ctx.server ctx.conn client.frame
  | _ -> ()

let split_first_comma = function
  | None -> None
  | Some arg -> (
      match String.index_opt arg ',' with
      | Some i ->
          Some
            ( String.trim (String.sub arg 0 i),
              String.sub arg (i + 1) (String.length arg - i - 1) )
      | None -> None)

(* Rotate the stacking of managed frames under the effective parent, like
   XCirculateSubwindows. *)
let circulate (ctx : Ctx.t) ~screen direction =
  let parent = Vdesk.effective_parent ctx ~screen ~sticky:false in
  let framed =
    List.filter_map
      (fun w -> Swm_xlib.Xid.Tbl.find_opt ctx.frames w)
      (Server.children_of ctx.server parent)
  in
  match (direction, framed) with
  | `Up, bottom :: _ :: _ -> Ctx.restack ctx bottom Event.Above
  | `Down, _ :: _ :: _ -> (
      match List.rev framed with
      | top :: _ -> Ctx.restack ctx top Event.Below
      | [] -> ())
  | (`Up | `Down), ([] | [ _ ])  -> ()

(* -------- runtime introspection (f.metrics / f.trace / f.slowlog) -------- *)

(* Replies travel the swmcmd channel in reverse: the result text is written
   to the SWM_RESULT root property, where the sending client reads it back
   (paper §4.3 run in both directions). *)
let set_result (ctx : Ctx.t) ~screen text =
  let scr = Ctx.screen ctx screen in
  Server.change_property ctx.server ctx.conn scr.root ~name:Prop.swm_result
    (Prop.String text)

let trace_control (ctx : Ctx.t) ~screen arg =
  let tracer = Server.tracer ctx.server in
  match Option.map (fun a -> String.lowercase_ascii (String.trim a)) arg with
  | Some "start" ->
      Tracing.start tracer;
      set_result ctx ~screen "{\"tracing\":\"started\"}"
  | Some "stop" ->
      Tracing.stop tracer;
      set_result ctx ~screen "{\"tracing\":\"stopped\"}"
  | Some "dump" -> set_result ctx ~screen (Tracing.to_chrome_json tracer)
  | Some _ | None ->
      set_result ctx ~screen "{\"error\":\"f.trace takes start, stop or dump\"}"

(* f.profile(start|stop|dump) — the continuous profiler.  start arms the
   GC probes and the span-aggregating sink (enabling the tracer if it was
   off); stop disarms but keeps the aggregated tree; dump replies with the
   call-tree JSON. *)
let profile_control (ctx : Ctx.t) ~screen arg =
  let profiler = Server.profiler ctx.server in
  match Option.map (fun a -> String.lowercase_ascii (String.trim a)) arg with
  | Some "start" ->
      Profile.start profiler;
      set_result ctx ~screen "{\"profiling\":\"started\"}"
  | Some "stop" ->
      Profile.stop profiler;
      set_result ctx ~screen "{\"profiling\":\"stopped\"}"
  | Some "dump" -> set_result ctx ~screen (Profile.to_json profiler)
  | Some _ | None ->
      set_result ctx ~screen "{\"error\":\"f.profile takes start, stop or dump\"}"

(* One-glance liveness summary: overall status plus the counters an operator
   would reach for first.  "degraded" as soon as the watchdog has seen a
   stall — the WM is alive but has been unresponsive at least once. *)
let health_json (ctx : Ctx.t) =
  let metrics = Server.metrics ctx.server in
  let recorder = Server.recorder ctx.server in
  let c name = Metrics.counter_value metrics name in
  let stalls = c "watchdog.stalls" in
  let degraded = stalls > 0 || ctx.tier <> Ctx.Tier_full in
  Printf.sprintf
    "{\"status\":%s,\"tier\":%s,\"events_dispatched\":%d,\"xerrors\":%d,\
     \"watchdog_stalls\":%d,\"faults_injected\":%d,\"swmcmd_errors\":%d,\
     \"clients\":%d,\"overload\":{\"queue_cap\":%d,\"events_shed\":%d,\
     \"state_bearing_shed\":%d,\"cap_overruns\":%d,\"quarantined\":%d,\
     \"recovered\":%d,\"evicted\":%d,\"tier_transitions\":%d,\
     \"events_skipped\":%d},\"connections\":{\"open\":%d,\"active\":%d,\
     \"tick_visits\":%d},\"recorder\":{\"enabled\":%b,\"recorded\":%d,\
     \"dropped\":%d,\"crash_dumps\":%d},\"ledger\":%s}"
    (Metrics.json_string (if degraded then "degraded" else "ok"))
    (Metrics.json_string (Ctx.tier_name ctx.tier))
    (c "wm.events_dispatched") (c "wm.xerrors") stalls (c "faults.injected")
    (c "swmcmd.errors")
    (List.length (Ctx.all_clients ctx))
    (Server.queue_cap ctx.server)
    (c "events.shed")
    (c "events.shed.state_bearing")
    (c "queue.cap_overruns") (c "health.quarantined") (c "health.recovered")
    (c "health.evicted")
    (c "governor.transitions")
    (c "governor.events_skipped")
    (Server.connection_count ctx.server)
    (Server.active_count ctx.server)
    (Server.tick_visits ctx.server)
    (Recorder.enabled recorder) (Recorder.recorded recorder)
    (Recorder.dropped recorder) (Recorder.dumps recorder)
    (Server.ledger_json ctx.server)

(* The recent-dispatch waterfall: every retained dispatch with its
   ingress -> queue -> dispatch timings, the requests it issued, and the
   f.* verbs it ran — the per-event causality view behind f.waterfall.
   Entries are emitted oldest-first; queue_ns/e2e_ns are -1 when the event
   entered the queue while the ledger was disarmed (no ingress stamp). *)
let waterfall_json (ctx : Ctx.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\"events\":%d,\"waterfall\":["
       (Ring.length ctx.wf_ring));
  List.iteri
    (fun i (r : Ctx.waterfall_rec) ->
      if i > 0 then Buffer.add_char buf ',';
      let queue_ns = if r.wf_ingress_ns > 0 then r.wf_t0 - r.wf_ingress_ns else -1 in
      let e2e_ns = if r.wf_ingress_ns > 0 then r.wf_t1 - r.wf_ingress_ns else -1 in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"seq\":%d,\"event\":%s,\"ingress_ns\":%d,\"queue_ns\":%d,\
            \"dispatch_ns\":%d,\"e2e_ns\":%d,\"requests\":%d,\"functions\":[%s]}"
           r.wf_seq
           (Metrics.json_string (Event.name_of_code r.wf_code))
           r.wf_ingress_ns queue_ns (r.wf_t1 - r.wf_t0) e2e_ns r.wf_requests
           (String.concat "," (List.map Metrics.json_string r.wf_fns))))
    (Ring.to_list ctx.wf_ring);
  Buffer.add_string buf
    (Printf.sprintf "],\"ledger\":%s}" (Server.ledger_json ctx.server));
  Buffer.contents buf

(* The time-series payload: the sampler's retained window plus the derived
   rates.  A sample is taken first so the window always extends to the
   moment of the query, even when the event loop has been idle.  The xrdb
   section gives the resource-DB memo hit rate as 1 - scans/queries. *)
let stats_json (ctx : Ctx.t) =
  Metrics.sample ctx.sampler;
  let rate = Metrics.rate ctx.sampler in
  let enqueued = rate "events.enqueued" in
  let coalesced = rate "events.coalesced" in
  let db = Config.db ctx.cfg in
  Printf.sprintf
    "{\"sampler\":%s,\"derived\":{\"events_per_sec\":%.3f,\
     \"dispatch_per_sec\":%.3f,\"coalesce_ratio\":%.4f,\
     \"faults_per_sec\":%.3f},\"xrdb\":{\"entries\":%d,\"queries\":%d,\
     \"scans\":%d,\"memo\":{\"size\":%d,\"capacity\":%d}},\"top\":%s}"
    (Metrics.stats_json ctx.sampler)
    enqueued
    (rate "wm.events_dispatched")
    (if enqueued > 0. then coalesced /. enqueued else 0.)
    (rate "faults.injected")
    (Xrdb.size db) (Xrdb.queries db) (Xrdb.scans db) (Xrdb.memo_size db)
    Xrdb.memo_capacity
    (Metrics.top_json (Server.metrics ctx.server) ())

(* The file-export verbs f.flame, f.flightdump and f.waterfall: trim the
   path argument, render the content, write it atomically and reply
   {"<verb>":path,"bytes":n<extra>} — or {"error":msg}. *)
let write_export (ctx : Ctx.t) ~screen ~verb arg render =
  match Option.map String.trim arg with
  | Some path when path <> "" -> (
      let content, extra = render () in
      try
        Recorder.write_atomic ~path content;
        set_result ctx ~screen
          (Printf.sprintf "{\"%s\":%s,\"bytes\":%d%s}" verb
             (Metrics.json_string path) (String.length content) extra)
      with Sys_error msg ->
        set_result ctx ~screen
          (Printf.sprintf "{\"error\":%s}" (Metrics.json_string msg)))
  | Some _ | None ->
      set_result ctx ~screen
        (Printf.sprintf "{\"error\":\"f.%s takes a file path\"}" verb)

let run_nullary (ctx : Ctx.t) inv name =
  match name with
  | "f.quit" -> ctx.running <- false
  | "f.restart" ->
      ctx.restart_requested <- true;
      ctx.running <- false
  | "f.refresh" -> ()
  | "f.unpostmenu" -> unpost_menu ctx ~screen:inv.inv_screen
  | "f.circulateup" -> circulate ctx ~screen:inv.inv_screen `Up
  | "f.circulatedown" -> circulate ctx ~screen:inv.inv_screen `Down
  | "f.slowlog" ->
      set_result ctx ~screen:inv.inv_screen
        (Tracing.slow_log_json (Server.tracer ctx.server))
  | "f.health" -> set_result ctx ~screen:inv.inv_screen (health_json ctx)
  | "f.stats" -> set_result ctx ~screen:inv.inv_screen (stats_json ctx)
  | _ -> ()

let rec run_data ~depth (ctx : Ctx.t) inv name arg =
  let screen = inv.inv_screen in
  let int_arg default = match Option.bind arg int_of_string_opt with
    | Some n -> n
    | None -> default
  in
  let pair_arg () =
    match arg with
    | None -> None
    | Some a -> (
        match String.split_on_char ',' a with
        | [ x; y ] -> (
            match (int_of_string_opt (String.trim x), int_of_string_opt (String.trim y)) with
            | Some x, Some y -> Some (x, y)
            | _ -> None)
        | _ -> None)
  in
  match name with
  | "f.warpvertical" ->
      let pos = Server.pointer_pos ctx.server in
      Server.warp_pointer ctx.server ~screen (Geom.point pos.px (pos.py + int_arg 0))
  | "f.warphorizontal" ->
      let pos = Server.pointer_pos ctx.server in
      Server.warp_pointer ctx.server ~screen (Geom.point (pos.px + int_arg 0) pos.py)
  | "f.pan" -> (
      match pair_arg () with
      | Some (dx, dy) -> Vdesk.pan_by ctx ~screen ~dx ~dy
      | None -> ())
  | "f.panto" -> (
      match pair_arg () with
      | Some (x, y) -> Vdesk.pan_to ctx ~screen (Geom.point x y)
      | None -> ())
  | "f.resizedesktop" -> (
      match pair_arg () with
      | Some (w, h) -> Vdesk.resize_desktop ctx ~screen (w, h)
      | None -> ())
  | "f.desktop" -> Vdesk.switch_desktop ctx ~screen (int_arg 0)
  | "f.menu" -> (
      match arg with Some menu_name -> post_menu ctx inv menu_name | None -> ())
  | "f.exec" -> (
      match arg with Some cmd -> ctx.executed <- cmd :: ctx.executed | None -> ())
  | "f.places" -> places ctx ~file_arg:arg
  | "f.autosave" -> autosave ctx ~file_arg:arg
  | "f.setlabel" -> (
      (* f.setLabel(object,new label) — dynamic appearance, paper §4.2. *)
      match split_first_comma arg with
      | Some (obj_name, text) ->
          let tk = (Ctx.screen ctx screen).tk in
          List.iter
            (fun obj ->
              let set () = Wobj.set_label obj text in
              match Decoration.frame_of_object ctx obj with
              | Some client -> Ctx.damage_if_resized ctx client set
              | None -> set ())
            (Wobj.find_objects_by_name tk obj_name)
      | None -> ())
  | "f.setbindings" -> (
      (* f.setBindings(object,<Btn1> : f.raise ...) — dynamic behaviour. *)
      match split_first_comma arg with
      | Some (obj_name, src) ->
          let tk = (Ctx.screen ctx screen).tk in
          List.iter
            (fun obj -> Wobj.set_attr obj "bindings" src)
            (Wobj.find_objects_by_name tk obj_name)
      | None -> ())
  | "f.function" -> (
      (* f.function(name): run the function list from the
         swm*function.<name> resource (user-defined macros). *)
      match arg with
      | Some macro_name when depth < 8 -> (
          match
            Config.query ctx.cfg ~screen
              ~names:[ "function"; macro_name ]
              ~classes:[ "Function"; String.capitalize_ascii macro_name ]
          with
          | Some src -> (
              match Bindings.parse ("<Btn1> : " ^ String.trim src) with
              | Ok [ { funcs; _ } ] -> execute_at ~depth:(depth + 1) ctx inv funcs
              | Ok _ | Error _ -> ())
          | None -> ())
      | Some _ | None -> ())
  | "f.scrollholder" -> (
      (* f.scrollHolder(name,delta) — the holder's scrolling window. *)
      match split_first_comma arg with
      | Some (holder_name, delta_text) -> (
          match
            (Icons.find_holder ctx ~screen holder_name,
             int_of_string_opt (String.trim delta_text))
          with
          | Some holder, Some delta -> Icons.scroll_holder ctx holder delta
          | _ -> ())
      | None -> ())
  | "f.trace" -> trace_control ctx ~screen arg
  | "f.profile" -> profile_control ctx ~screen arg
  | "f.flame" ->
      (* f.flame(FILE) — write the aggregated call tree as collapsed-stack
         text (flamegraph.pl / speedscope input) and reply with what was
         written plus the coverage numbers. *)
      write_export ctx ~screen ~verb:"flame" arg (fun () ->
          let profiler = Server.profiler ctx.server in
          let collapsed = Profile.to_collapsed profiler in
          ( collapsed,
            Printf.sprintf
              ",\"frames\":%d,\"root_total_ns\":%d,\"dispatch_wall_ns\":%d,\
               \"coverage\":%.3f"
              (String.fold_left
                 (fun n c -> if c = '\n' then n + 1 else n)
                 0 collapsed)
              (Profile.root_total_ns profiler)
              (Profile.dispatch_wall_ns profiler)
              (Profile.coverage profiler) ))
  | "f.metrics" -> (
      let metrics = Server.metrics ctx.server in
      match Option.map (fun a -> String.lowercase_ascii (String.trim a)) arg with
      | None -> set_result ctx ~screen (Metrics.to_json metrics)
      | Some "prometheus" -> set_result ctx ~screen (Metrics.to_prometheus metrics)
      | Some "table" -> set_result ctx ~screen (Metrics.to_table metrics)
      | Some _ ->
          set_result ctx ~screen
            "{\"error\":\"f.metrics takes no argument, prometheus or table\"}")
  | "f.flightdump" ->
      write_export ctx ~screen ~verb:"flightdump" arg (fun () ->
          ( Recorder.dump_json
              (Server.recorder ctx.server)
              ~reason:"f.flightdump"
              ~metrics:(Server.metrics ctx.server)
              ~tracer:(Server.tracer ctx.server),
            "" ))
  | "f.replay" -> (
      (* f.replay(FILE) — re-execute a crash report or repro file against a
         fresh Server+WM pair and report the convergence outcome, so the
         repro workflow works over swmcmd without restarting swm. *)
      match Option.map String.trim arg with
      | Some path when path <> "" -> (
          match
            try Ok (In_channel.with_open_text path In_channel.input_all)
            with Sys_error msg -> Error msg
          with
          | Error msg ->
              set_result ctx ~screen
                (Printf.sprintf "{\"error\":%s}" (Metrics.json_string msg))
          | Ok text -> (
              match Replay.parse_report text with
              | Error msg ->
                  set_result ctx ~screen
                    (Printf.sprintf "{\"error\":%s}" (Metrics.json_string msg))
              | Ok report ->
                  set_result ctx ~screen (Replay.outcome_json (!replay_runner report))))
      | Some _ | None ->
          set_result ctx ~screen "{\"error\":\"f.replay takes a file path\"}")
  | "f.fate" -> (
      (* f.fate([CONN|WINDOW]) — the lifecycle ledger's recent fate records
         (what happened to each event: delivered, coalesced into a survivor,
         folded, shed, dropped, skipped, evicted), optionally filtered to a
         connection name or a window id, plus the running conservation
         counters.  "Where did my event go?" answered from live state. *)
      match Option.map String.trim arg with
      | None | Some "" -> set_result ctx ~screen (Server.fate_json ctx.server ())
      | Some sel -> (
          let window_of sel =
            if String.length sel > 1 && sel.[0] = '#' then
              int_of_string_opt (String.sub sel 1 (String.length sel - 1))
            else int_of_string_opt sel
          in
          match window_of sel with
          | Some w -> set_result ctx ~screen (Server.fate_json ctx.server ~window:w ())
          | None -> set_result ctx ~screen (Server.fate_json ctx.server ~conn:sel ())))
  | "f.waterfall" ->
      (* f.waterfall(FILE) — write the recent-dispatch waterfall JSON. *)
      write_export ctx ~screen ~verb:"waterfall" arg (fun () ->
          (waterfall_json ctx, ""))
  | "f.warpto" -> (
      match arg with
      | Some class_arg -> (
          match Ctx.clients_of_class ctx class_arg with
          | client :: _ ->
              let scr = Ctx.screen ctx client.screen in
              let abs =
                Server.translate_coordinates ctx.server ~src:client.frame
                  ~dst:scr.root (Geom.point 0 0)
              in
              let geom = Server.geometry ctx.server client.frame in
              Server.warp_pointer ctx.server ~screen:client.screen
                (Geom.point (abs.px + (geom.w / 2)) (abs.py + (geom.h / 2)))
          | [] -> ())
      | None -> ())
  | _ -> ()

and execute_at ~depth (ctx : Ctx.t) inv (funcs : Bindings.func_call list) =
  match funcs with
  | [] -> ()
  | f :: rest -> (
      let name = canon f.fname in
      Recorder.record
        (Server.recorder ctx.server)
        ~kind:"function"
        ~attrs:(match f.farg with None -> [] | Some a -> [ ("arg", a) ])
        name;
      (* Per-function attribution, always on: which f.* verbs a session
         actually exercises (and how often) — the other half of the
         top-talkers view next to per-connection delivery.  Unknown names
         stay out so a typo storm cannot burn label slots. *)
      (* max_series must clear the full f.* vocabulary (~44 names) so no
         legitimate verb lands in "other". *)
      if known name then begin
        Metrics.incr
          (Metrics.labeled_counter
             (Metrics.counter_family
                (Server.metrics ctx.server)
                ~max_series:64 ~key:"fn" "functions.calls")
             name);
        (* The dispatch-in-flight trail: Wm resets it per event and copies
           it (reversed) into the waterfall record, linking f.* activity to
           the triggering event. *)
        ctx.fn_trail <- name :: ctx.fn_trail
      end;
      let tracer = Server.tracer ctx.server in
      if List.mem name nullary_functions then begin
        (if Tracing.enabled tracer then Tracing.span tracer name
         else fun f -> f ())
        @@ (fun () -> run_nullary ctx inv name);
        execute_at ~depth ctx inv rest
      end
      else if List.mem name data_arg_functions then begin
        (if Tracing.enabled tracer then
           Tracing.span tracer name
             ~attrs:(match f.farg with None -> [] | Some a -> [ ("arg", a) ])
         else fun f -> f ())
        @@ (fun () -> run_data ~depth ctx inv name f.farg);
        execute_at ~depth ctx inv rest
      end
      else if List.mem name window_functions then begin
        match resolve_targets ctx inv f with
        | Clients clients ->
            (* Per-client guard: one client dying mid-list must not abort
               the function for the remaining targets. *)
            List.iter
              (fun (client : Ctx.client) ->
                (if Tracing.enabled tracer then
                   Tracing.span tracer name
                     ~attrs:[ ("client", client.instance) ]
                 else fun f -> f ())
                @@ fun () ->
                Xguard.run ctx ~where:name (fun () -> run_on_client ctx name client))
              clients;
            execute_at ~depth ctx inv rest
        | Needs_prompt ->
            (* Park this function and the rest until a window is picked. *)
            ctx.mode <- Ctx.Prompting (f :: rest)
      end
      else (* unknown function: skip it but keep going *)
        execute_at ~depth ctx inv rest)

let execute ctx inv funcs = execute_at ~depth:0 ctx inv funcs

let resume_with_target (ctx : Ctx.t) (client : Ctx.client) =
  match ctx.mode with
  | Ctx.Prompting funcs ->
      ctx.mode <- Ctx.Idle;
      let inv = invocation ~client ~screen:client.screen () in
      (* The parked functions now have a current window; strip nothing. *)
      execute ctx inv funcs
  | Ctx.Idle | Ctx.Moving _ | Ctx.Resizing _ -> ()

let execute_string (ctx : Ctx.t) inv text =
  (* Reuse the bindings function-list grammar by parsing a synthetic
     binding. *)
  match Bindings.parse ("<Btn1> : " ^ String.trim text) with
  | Ok [ { funcs; _ } ] -> (
      execute ctx inv funcs;
      (* Typos must not vanish: run what is known, report what is not. *)
      match
        List.filter (fun (f : Bindings.func_call) -> not (known f.fname)) funcs
      with
      | [] -> Ok ()
      | unknown ->
          Error
            ("unknown function "
            ^ String.concat ", "
                (List.map (fun (f : Bindings.func_call) -> f.fname) unknown)))
  | Ok _ -> Error "expected a plain function list"
  | Error msg -> Error msg

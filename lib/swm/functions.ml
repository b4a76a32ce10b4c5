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

(* f.query(replay,FILE) must start a fresh WM, which lives above this module
   in the dependency order; Wm installs the real runner at link time. *)
let replay_runner : (Replay.report -> Replay.outcome) ref =
  ref (fun _ ->
      Replay.Crashed
        { op_index = 0; op = "(none)"; error = "no replay runner installed" })

let set_replay_runner f = replay_runner := f

let canon name = String.lowercase_ascii name

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

(* -------- arguments -------- *)

let split_first_comma = function
  | None -> None
  | Some arg -> (
      match String.index_opt arg ',' with
      | Some i ->
          Some
            ( String.trim (String.sub arg 0 i),
              String.sub arg (i + 1) (String.length arg - i - 1) )
      | None -> None)

let int_arg arg = Option.value (Option.bind arg int_of_string_opt) ~default:0

let pair_arg arg =
  match Option.map (String.split_on_char ',') arg with
  | Some [ x; y ] -> (
      match (int_of_string_opt (String.trim x), int_of_string_opt (String.trim y)) with
      | Some x, Some y -> Some (x, y)
      | _ -> None)
  | Some _ | None -> None

let warp_by (ctx : Ctx.t) inv ~dx ~dy =
  let pos = Server.pointer_pos ctx.server in
  Server.warp_pointer ctx.server ~screen:inv.inv_screen
    (Geom.point (pos.px + dx) (pos.py + dy))

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

(* f.function(name): the function list of the swm*function.<name> resource
   (user-defined macros). *)
let macro (ctx : Ctx.t) ~screen name =
  match
    Config.query ctx.cfg ~screen ~names:[ "function"; name ]
      ~classes:[ "Function"; String.capitalize_ascii name ]
  with
  | Some src -> (
      match Bindings.parse ("<Btn1> : " ^ String.trim src) with
      | Ok [ { funcs; _ } ] -> funcs
      | Ok _ | Error _ -> [])
  | None -> []

(* -------- f.query: runtime introspection -------- *)

(* Replies travel the swmcmd channel in reverse: the result text is written
   to the SWM_RESULT root property, where the sending client reads it back
   (paper §4.3 run in both directions). *)
let set_result (ctx : Ctx.t) ~screen text =
  let scr = Ctx.screen ctx screen in
  Server.change_property ctx.server ctx.conn scr.root ~name:Prop.swm_result
    (Prop.String text)

let error_json msg = Printf.sprintf "{\"error\":%s}" (Metrics.json_string msg)

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

(* The recent-dispatch waterfall: every dispatch the ledger's fate window
   retains for the WM's connection, with its ingress -> queue -> dispatch
   timings, the requests it issued, and the f.* functions it ran — the
   per-event causality view behind f.query(waterfall,FILE).  Entries are
   emitted oldest-first; queue_ns/e2e_ns are -1 when the event entered the
   queue while the ledger was disarmed (no ingress stamp). *)
let waterfall_json (ctx : Ctx.t) =
  let dispatches = Server.dispatches ctx.conn in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\"events\":%d,\"waterfall\":[" (List.length dispatches));
  List.iteri
    (fun i (d : Server.dispatch) ->
      if i > 0 then Buffer.add_char buf ',';
      let since_ingress t = if d.d_ingress_ns > 0 then t - d.d_ingress_ns else -1 in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"seq\":%d,\"event\":%s,\"ingress_ns\":%d,\"queue_ns\":%d,\
            \"dispatch_ns\":%d,\"e2e_ns\":%d,\"requests\":%d,\"functions\":[%s]}"
           d.d_seq
           (Metrics.json_string (Event.name_of_code d.d_code))
           d.d_ingress_ns (since_ingress d.d_start_ns) (d.d_end_ns - d.d_start_ns)
           (since_ingress d.d_end_ns) d.d_requests
           (String.concat "," (List.map Metrics.json_string d.d_functions))))
    dispatches;
  Buffer.add_string buf
    (Printf.sprintf "],\"ledger\":%s}" (Server.ledger_json ctx.server));
  Buffer.contents buf

(* The time-series payload: the sampler's retained window plus the derived
   rates.  A sample is taken first so the window always extends to the
   moment of the query, even when the event loop has been idle.  The xrdb
   section gives the resource-DB memo hit rate as 1 - scans/queries, and the
   toolkits' attribute records: classes held, and reads they answered
   without a query. *)
let stats_json (ctx : Ctx.t) =
  Metrics.sample ctx.sampler;
  let rate = Metrics.rate ctx.sampler in
  let enqueued = rate "events.enqueued" in
  let coalesced = rate "events.coalesced" in
  let db = Config.db ctx.cfg in
  let sum f =
    Array.fold_left (fun n (scr : Ctx.screen_state) -> n + f scr.tk) 0 ctx.screens
  in
  Printf.sprintf
    "{\"sampler\":%s,\"derived\":{\"events_per_sec\":%.3f,\
     \"dispatch_per_sec\":%.3f,\"coalesce_ratio\":%.4f,\
     \"faults_per_sec\":%.3f},\"xrdb\":{\"entries\":%d,\"queries\":%d,\
     \"scans\":%d,\"memo\":{\"size\":%d,\"capacity\":%d},\
     \"records\":{\"classes\":%d,\"hits\":%d}},\"top\":%s}"
    (Metrics.stats_json ctx.sampler)
    enqueued
    (rate "wm.events_dispatched")
    (if enqueued > 0. then coalesced /. enqueued else 0.)
    (rate "faults.injected")
    (Xrdb.size db) (Xrdb.queries db) (Xrdb.scans db) (Xrdb.memo_size db)
    Xrdb.memo_capacity (sum Wobj.records) (sum Wobj.record_hits)
    (Metrics.top_json (Server.metrics ctx.server) ())

(* A section that takes no argument. *)
let no_arg section reply (ctx : Ctx.t) = function
  | None -> reply ctx
  | Some _ -> error_json (Printf.sprintf "f.query(%s) takes no argument" section)

(* The trace and profile sections: start clears and arms, stop disarms but
   keeps what was gathered, no argument dumps it. *)
let switch ~section ~key ~start ~stop ~dump arg =
  match Option.map String.lowercase_ascii arg with
  | None -> dump ()
  | Some "start" ->
      start ();
      Printf.sprintf "{\"%s\":\"started\"}" key
  | Some "stop" ->
      stop ();
      Printf.sprintf "{\"%s\":\"stopped\"}" key
  | Some _ ->
      error_json (Printf.sprintf "f.query(%s) takes start, stop or no argument" section)

(* The file sections: render the content, write it atomically to the path
   argument and reply {"<section>":path,"bytes":n<extra>}. *)
let write_export ~section arg render =
  match arg with
  | None -> error_json (Printf.sprintf "f.query(%s) takes a file path" section)
  | Some path -> (
      let content, extra = render () in
      try
        Recorder.write_atomic ~path content;
        Printf.sprintf "{\"%s\":%s,\"bytes\":%d%s}" section
          (Metrics.json_string path) (String.length content) extra
      with Sys_error msg -> error_json msg)

(* Each section's reply for its argument (the text after the first comma,
   trimmed; [None] when there is none). *)
let sections : (string * (Ctx.t -> string option -> string)) list = [
  ("metrics", fun ctx arg ->
    let metrics = Server.metrics ctx.server in
    match Option.map String.lowercase_ascii arg with
    | None -> Metrics.to_json metrics
    | Some "prometheus" -> Metrics.to_prometheus metrics
    | Some "table" -> Metrics.to_table metrics
    | Some _ -> error_json "f.query(metrics) takes no argument, prometheus or table");
  ("stats", no_arg "stats" stats_json);
  ("health", no_arg "health" health_json);
  ("slowlog", no_arg "slowlog" (fun ctx ->
    Tracing.slow_log_json (Server.tracer ctx.server)));
  ("trace", fun ctx ->
    let tracer = Server.tracer ctx.server in
    switch ~section:"trace" ~key:"tracing"
      ~start:(fun () -> Tracing.start tracer)
      ~stop:(fun () -> Tracing.stop tracer)
      ~dump:(fun () -> Tracing.to_chrome_json tracer));
  (* The continuous profiler: start arms the GC probes and the
     span-aggregating sink (enabling the tracer if it was off); the dump is
     the call-tree JSON. *)
  ("profile", fun ctx ->
    let profiler = Server.profiler ctx.server in
    switch ~section:"profile" ~key:"profiling"
      ~start:(fun () -> Profile.start profiler)
      ~stop:(fun () -> Profile.stop profiler)
      ~dump:(fun () -> Profile.to_json profiler));
  (* The lifecycle ledger's recent fate records (what happened to each event:
     delivered, coalesced into a survivor, folded, shed, dropped, skipped,
     evicted), optionally filtered to a connection name or a window id, plus
     the running conservation counters.  "Where did my event go?" answered
     from live state. *)
  ("fate", fun ctx -> function
    | None -> Server.fate_json ctx.server ()
    | Some sel -> (
        (* [sel] is trimmed and non-empty *)
        let id = if sel.[0] = '#' then String.sub sel 1 (String.length sel - 1) else sel in
        match int_of_string_opt id with
        | Some w -> Server.fate_json ctx.server ~window:w ()
        | None -> Server.fate_json ctx.server ~conn:sel ()));
  (* The aggregated call tree as collapsed-stack text (flamegraph.pl /
     speedscope input), replying with the coverage numbers. *)
  ("flame", fun ctx arg ->
    write_export ~section:"flame" arg (fun () ->
      let profiler = Server.profiler ctx.server in
      let collapsed = Profile.to_collapsed profiler in
      ( collapsed,
        Printf.sprintf
          ",\"frames\":%d,\"root_total_ns\":%d,\"dispatch_wall_ns\":%d,\
           \"coverage\":%.3f"
          (String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 collapsed)
          (Profile.root_total_ns profiler)
          (Profile.dispatch_wall_ns profiler)
          (Profile.coverage profiler) )));
  ("flightdump", fun ctx arg ->
    write_export ~section:"flightdump" arg (fun () ->
      ( Recorder.dump_json (Server.recorder ctx.server) ~reason:"f.query(flightdump)"
          ~metrics:(Server.metrics ctx.server) ~tracer:(Server.tracer ctx.server),
        "" )));
  ("waterfall", fun ctx arg ->
    write_export ~section:"waterfall" arg (fun () -> (waterfall_json ctx, "")));
  (* Re-execute a crash report or repro file against a fresh Server+WM pair
     and report the convergence outcome, so the repro workflow works over
     swmcmd without restarting swm. *)
  ("replay", fun _ -> function
    | None -> error_json "f.query(replay) takes a file path"
    | Some path -> (
        match
          Result.bind
            (try Ok (In_channel.with_open_text path In_channel.input_all)
             with Sys_error msg -> Error msg)
            Replay.parse_report
        with
        | Ok report -> Replay.outcome_json (!replay_runner report)
        | Error msg -> error_json msg));
]

(* f.query(SECTION[,ARG]): every reply lands on SWM_RESULT, errors too. *)
let query (ctx : Ctx.t) inv arg =
  let section, arg =
    match split_first_comma arg with
    | Some (section, rest) ->
        (section, match String.trim rest with "" -> None | a -> Some a)
    | None -> (String.trim (Option.value arg ~default:""), None)
  in
  let names = String.concat ", " (List.map fst sections) in
  set_result ctx ~screen:inv.inv_screen
    (match List.assoc_opt (String.lowercase_ascii section) sections with
    | Some reply -> reply ctx arg
    | None when section = "" -> error_json ("f.query takes a section: " ^ names)
    | None ->
        error_json (Printf.sprintf "f.query has no section %s; sections: %s" section names))

(* -------- the function table -------- *)

type handler =
  | On_client of (Ctx.t -> Ctx.client -> unit)
      (* needs target windows: the current one, a class, an id, or a prompt *)
  | On_data of (Ctx.t -> invocation -> string option -> unit)
      (* takes its argument as data, or none *)
  | Macro  (* f.function: runs a function list named by its argument *)

(* The f.* vocabulary, each name once in its canonical (lower-case) form. *)
let functions : (string, handler) Hashtbl.t =
  let on_pair f =
    On_data (fun ctx inv arg -> Option.iter (f ctx ~screen:inv.inv_screen) (pair_arg arg))
  in
  let on_objects (ctx : Ctx.t) inv arg f =
    match split_first_comma arg with
    | Some (obj_name, rest) ->
        let tk = (Ctx.screen ctx inv.inv_screen).tk in
        List.iter (fun obj -> f obj rest) (Wobj.find_objects_by_name tk obj_name)
    | None -> ()
  in
  Hashtbl.of_seq @@ List.to_seq @@ [
    ("f.raise", On_client (fun ctx client -> Ctx.restack ctx client Event.Above));
    ("f.lower", On_client (fun ctx client -> Ctx.restack ctx client Event.Below));
    ("f.raiselower", On_client (fun ctx client ->
      let parent = Server.parent_of ctx.server client.frame in
      let on_top = Xid.equal (Server.top_child ctx.server parent) client.frame in
      Ctx.restack ctx client (if on_top then Event.Below else Event.Above)));
    ("f.iconify", On_client Icons.iconify);
    ("f.deiconify", On_client Icons.deiconify);
    ("f.zoom", On_client zoom);
    ("f.save", On_client (fun ctx client ->
      if client.zoom_saved = None then save_geometry ctx client));
    ("f.stick", On_client (fun ctx client ->
      set_sticky_and_redecorate ctx client (not client.sticky)));
    ("f.unstick", On_client (fun ctx client ->
      set_sticky_and_redecorate ctx client false));
    ("f.delete", On_client (fun ctx client ->
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
        | Some _ | None -> Server.destroy_window ctx.server client.cwin));
    ("f.focus", On_client (fun ctx client ->
      Server.set_input_focus ctx.server ctx.conn client.cwin));
    ("f.identify", On_client (fun ctx client ->
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
      ctx.identify_win <- popup));
    ("f.move", On_client (fun ctx client ->
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
      Server.grab_pointer ctx.server ctx.conn client.frame));
    ("f.resize", On_client (fun ctx client ->
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
      Server.grab_pointer ctx.server ctx.conn client.frame));
    ("f.warpvertical", On_data (fun ctx inv arg ->
      warp_by ctx inv ~dx:0 ~dy:(int_arg arg)));
    ("f.warphorizontal", On_data (fun ctx inv arg ->
      warp_by ctx inv ~dx:(int_arg arg) ~dy:0));
    ("f.warpto", On_data (fun ctx _ arg ->
      match Option.map (Ctx.clients_of_class ctx) arg with
      | Some (client :: _) ->
          let scr = Ctx.screen ctx client.screen in
          let abs =
            Server.translate_coordinates ctx.server ~src:client.frame
              ~dst:scr.root (Geom.point 0 0)
          in
          let geom = Server.geometry ctx.server client.frame in
          Server.warp_pointer ctx.server ~screen:client.screen
            (Geom.point (abs.px + (geom.w / 2)) (abs.py + (geom.h / 2)))
      | Some [] | None -> ()));
    ("f.pan", on_pair (fun ctx ~screen (dx, dy) -> Vdesk.pan_by ctx ~screen ~dx ~dy));
    ("f.panto", on_pair (fun ctx ~screen (x, y) ->
      Vdesk.pan_to ctx ~screen (Geom.point x y)));
    ("f.resizedesktop", on_pair Vdesk.resize_desktop);
    ("f.desktop", On_data (fun ctx inv arg ->
      Vdesk.switch_desktop ctx ~screen:inv.inv_screen (int_arg arg)));
    ("f.menu", On_data (fun ctx inv arg -> Option.iter (post_menu ctx inv) arg));
    ("f.unpostmenu", On_data (fun ctx inv _ -> unpost_menu ctx ~screen:inv.inv_screen));
    ("f.exec", On_data (fun ctx _ arg ->
      Option.iter (fun cmd -> ctx.executed <- cmd :: ctx.executed) arg));
    ("f.places", On_data (fun ctx _ arg -> places ctx ~file_arg:arg));
    ("f.autosave", On_data (fun ctx _ arg -> autosave ctx ~file_arg:arg));
    (* f.setLabel(object,new label) — dynamic appearance, paper §4.2. *)
    ("f.setlabel", On_data (fun ctx inv arg ->
      on_objects ctx inv arg (fun obj text ->
        let set () = Wobj.set_label obj text in
        match Decoration.frame_of_object ctx obj with
        | Some client -> Ctx.damage_if_resized ctx client set
        | None -> set ())));
    (* f.setBindings(object,<Btn1> : f.raise ...) — dynamic behaviour. *)
    ("f.setbindings", On_data (fun ctx inv arg ->
      on_objects ctx inv arg (fun obj src -> Wobj.set_attr obj "bindings" src)));
    (* f.scrollHolder(name,delta) — the holder's scrolling window. *)
    ("f.scrollholder", On_data (fun ctx inv arg ->
      match split_first_comma arg with
      | Some (holder_name, delta_text) -> (
          match
            (Icons.find_holder ctx ~screen:inv.inv_screen holder_name,
             int_of_string_opt (String.trim delta_text))
          with
          | Some holder, Some delta -> Icons.scroll_holder ctx holder delta
          | _ -> ())
      | None -> ()));
    ("f.circulateup", On_data (fun ctx inv _ -> circulate ctx ~screen:inv.inv_screen `Up));
    ("f.circulatedown", On_data (fun ctx inv _ ->
      circulate ctx ~screen:inv.inv_screen `Down));
    ("f.function", Macro);
    ("f.query", On_data query);
    ("f.refresh", On_data (fun _ _ _ -> ()));
    ("f.quit", On_data (fun ctx _ _ -> ctx.running <- false));
    ("f.restart", On_data (fun ctx _ _ ->
      ctx.restart_requested <- true;
      ctx.running <- false));
  ]

let known name = Hashtbl.mem functions (canon name)

(* Run [body] inside a span named after the function, tagged with its
   argument, when tracing is on. *)
let with_arg_span tracer name (f : Bindings.func_call) body =
  if Tracing.enabled tracer then
    Tracing.span tracer name
      ~attrs:(match f.farg with None -> [] | Some a -> [ ("arg", a) ])
      body
  else body ()

let rec execute_at ~depth (ctx : Ctx.t) inv (funcs : Bindings.func_call list) =
  match funcs with
  | [] -> ()
  | f :: rest -> (
      let name = canon f.fname in
      let recorder = Server.recorder ctx.server in
      if Recorder.enabled recorder then
        Recorder.record recorder ~kind:"function"
          ~attrs:(match f.farg with None -> [] | Some a -> [ ("arg", a) ])
          name;
      let handler = Hashtbl.find_opt functions name in
      (* Per-function attribution, always on: which f.* functions a session
         actually exercises (and how often) — the other half of the
         top-talkers view next to per-connection delivery.  Unknown names
         stay out so a typo storm cannot burn label slots. *)
      (* max_series must clear the full f.* vocabulary (36 names) so no
         legitimate function lands in "other". *)
      if Option.is_some handler then begin
        Metrics.incr
          (Metrics.labeled_counter
             (Metrics.counter_family
                (Server.metrics ctx.server)
                ~max_series:64 ~key:"fn" "functions.calls")
             name);
        (* The dispatch-in-flight trail: Wm resets it per event and keeps
           it in the event's fate slot, linking f.* activity to the
           triggering event. *)
        ctx.fn_trail <- name :: ctx.fn_trail
      end;
      let tracer = Server.tracer ctx.server in
      match handler with
      | Some (On_data run) ->
          with_arg_span tracer name f (fun () -> run ctx inv f.farg);
          execute_at ~depth ctx inv rest
      | Some Macro ->
          with_arg_span tracer name f (fun () ->
              match f.farg with
              | Some macro_name when depth < 8 ->
                  execute_at ~depth:(depth + 1) ctx inv
                    (macro ctx ~screen:inv.inv_screen macro_name)
              | Some _ | None -> ());
          execute_at ~depth ctx inv rest
      | Some (On_client run) -> (
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
                  Xguard.run ctx ~where:name (fun () ->
                      Ctx.Log.debug (fun m ->
                          m "%s on %s (win=%a)" name client.instance Xid.pp client.cwin);
                      run ctx client))
                clients;
              execute_at ~depth ctx inv rest
          | Needs_prompt ->
              (* Park this function and the rest until a window is picked. *)
              ctx.mode <- Ctx.Prompting (f :: rest))
      | None -> (* unknown function: skip it but keep going *)
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

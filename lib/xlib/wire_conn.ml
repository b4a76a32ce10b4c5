type t = {
  server : Server.t;
  sconn : Server.conn;
  alloc : Xid.Alloc.t;  (* client-side id space *)
  to_server : Xid.t Xid.Tbl.t;
  to_client : Xid.t Xid.Tbl.t;
  mutable sent : int;
  mutable received : int;
  op_counters : Metrics.counter option array; (* per-opcode request counts *)
  m_rejected : Metrics.counter; (* frames refused by decode or execution *)
  m_requests_by : Metrics.counter; (* wire.requests.by_conn{conn} series *)
  profiler : Profile.t;
  sec_decode : Profile.section; (* gc.minor_words.wire.decode *)
  sec_encode : Profile.section; (* gc.minor_words.wire.encode *)
  enc : Wire.A.t; (* reusable encode arena: one per connection *)
  dec_cursor : int ref; (* reusable decode cursor: one per connection *)
}

type submit_error = { executed : int; error : string }

(* Client ids live in their own space; roots get well-known client ids so a
   fresh connection can name them (X tells clients the root ids in the
   connection setup). *)
let root_client_id screen = Xid.of_int (1000000 + screen)

let create server ~name =
  let profiler = Server.profiler server in
  let t =
    {
      server;
      sconn = Server.connect server ~name;
      alloc = Xid.Alloc.create ();
      to_server = Xid.Tbl.create 16;
      to_client = Xid.Tbl.create 16;
      sent = 0;
      received = 0;
      op_counters = Array.make 32 None;
      m_rejected = Metrics.counter (Server.metrics server) "wire.rejected_frames";
      m_requests_by =
        Metrics.labeled_counter
          (Metrics.counter_family (Server.metrics server) ~key:"conn"
             "wire.requests.by_conn")
          name;
      profiler;
      sec_decode = Profile.section profiler "wire.decode";
      sec_encode = Profile.section profiler "wire.encode";
      enc = Wire.A.create 4096;
      dec_cursor = ref 0;
    }
  in
  for screen = 0 to Server.screen_count server - 1 do
    let cid = root_client_id screen in
    let sid = Server.root server ~screen in
    Xid.Tbl.replace t.to_server cid sid;
    Xid.Tbl.replace t.to_client sid cid
  done;
  t

let conn t = t.sconn

let alias t ~client ~server =
  Xid.Tbl.replace t.to_server client server;
  Xid.Tbl.replace t.to_client server client

let fresh_id t = Xid.Alloc.next t.alloc
let root_id _t ~screen = root_client_id screen
let bytes_sent t = t.sent
let bytes_received t = t.received
let resolve t cid = Xid.Tbl.find_opt t.to_server cid

exception Wire_error of string

let to_server_id t cid =
  match Xid.Tbl.find_opt t.to_server cid with
  | Some sid -> sid
  | None ->
      raise
        (Wire_error (Format.asprintf "unknown client id %a" Xid.pp cid))

let to_client_id t sid =
  match Xid.Tbl.find_opt t.to_client sid with Some cid -> cid | None -> sid

(* Per-request-opcode counters ("requests.opcode.NN"), resolved once per
   opcode and cached. *)
let count_opcode t req =
  Metrics.incr t.m_requests_by;
  let code = Wire.opcode req in
  if code >= 0 && code < Array.length t.op_counters then begin
    let counter =
      match t.op_counters.(code) with
      | Some c -> c
      | None ->
          let c =
            Metrics.counter (Server.metrics t.server)
              (Printf.sprintf "requests.opcode.%02d" code)
          in
          t.op_counters.(code) <- Some c;
          c
    in
    Metrics.incr counter
  end

let execute t (req : Wire.request) =
  count_opcode t req;
  let s = to_server_id t in
  match req with
  | Wire.Create_window { wid; parent; geom; border; override_redirect } ->
      let sid =
        Server.create_window t.server t.sconn ~parent:(s parent) ~geom ~border
          ~override_redirect ()
      in
      Xid.Tbl.replace t.to_server wid sid;
      Xid.Tbl.replace t.to_client sid wid
  | Wire.Destroy_window w -> Server.destroy_window t.server (s w)
  | Wire.Map_window w -> Server.map_window t.server t.sconn (s w)
  | Wire.Unmap_window w -> Server.unmap_window t.server t.sconn (s w)
  | Wire.Configure_window (w, changes) ->
      let changes =
        match changes.Event.csibling with
        | Some sib -> { changes with Event.csibling = Some (s sib) }
        | None -> changes
      in
      Server.configure_window t.server t.sconn (s w) changes
  | Wire.Reparent_window { window; parent; pos } ->
      Server.reparent_window t.server t.sconn (s window) ~new_parent:(s parent) ~pos
  | Wire.Change_property { window; name; value } ->
      Server.change_property t.server t.sconn (s window) ~name (Prop.String value)
  | Wire.Delete_property { window; name } ->
      Server.delete_property t.server t.sconn (s window) ~name
  | Wire.Select_input { window; masks } ->
      Server.select_input t.server t.sconn (s window) masks
  | Wire.Grab_pointer w -> Server.grab_pointer t.server t.sconn (s w)
  | Wire.Ungrab_pointer -> Server.ungrab_pointer t.server t.sconn
  | Wire.Warp_pointer p ->
      Server.warp_pointer t.server ~screen:(Server.pointer_screen t.server) p
  | Wire.Set_input_focus w -> Server.set_input_focus t.server t.sconn (s w)
  | Wire.Shape_rectangles { window; rects } ->
      Server.shape_set t.server t.sconn (s window) (Region.of_rects rects)
  | Wire.Add_to_save_set w -> Server.add_to_save_set t.server t.sconn (s w)
  | Wire.Remove_from_save_set w -> Server.remove_from_save_set t.server t.sconn (s w)

(* Frame fault site: an armed plan may truncate the submitted byte string
   or flip one byte before decoding — a torn or corrupted stream.  The
   decoder then rejects the damaged frame like any other bad input. *)
let apply_frame_faults t bytes =
  match Server.faults t.server with
  | Some f when String.length bytes > 0 -> (
      let attrs =
        [ ("conn", Server.conn_name t.sconn);
          ("bytes", string_of_int (String.length bytes)) ]
      in
      match Fault.draw_frame f with
      | Some Fault.Truncate_frame ->
          Fault.fire f Fault.Truncate_frame ~attrs;
          Fault.truncate f bytes
      | Some Fault.Corrupt_frame ->
          Fault.fire f Fault.Corrupt_frame ~attrs;
          Fault.corrupt f bytes
      | Some _ | None -> bytes)
  | Some _ | None -> bytes

let submit_bytes t bytes =
  t.sent <- t.sent + String.length bytes;
  let bytes = apply_frame_faults t bytes in
  Profile.alloc_section t.profiler t.sec_decode @@ fun () ->
  (if Tracing.enabled (Server.tracer t.server) then
     Tracing.span (Server.tracer t.server) "wire.decode"
       ~attrs:
         [ ("bytes", string_of_int (String.length bytes)); ("conn", Server.conn_name t.sconn) ]
   else fun f -> f ())
  @@ fun () ->
  (* On any failure the result reports how many requests already executed:
     a batch is not transactional, and callers accounting for partial
     effects (traces, replays, chaos tests) need the split point. *)
  let fail count msg =
    Metrics.incr t.m_rejected;
    (* Health attribution: a client that keeps submitting frames the
       server refuses is pressuring the WM, and its score should say so. *)
    Server.note_rejected t.sconn;
    Error { executed = count; error = msg }
  in
  (* One cached cursor decodes every frame in the stream — no per-frame
     position cells. *)
  let cursor = t.dec_cursor in
  cursor := 0;
  let rec loop count =
    if !cursor >= String.length bytes then Ok count
    else
      match Wire.decode_request_cursor bytes cursor with
      | Error msg -> fail count msg
      | Ok req -> (
          match execute t req with
          | () -> loop (count + 1)
          | exception Wire_error msg -> fail count msg
          | exception Server.Bad_window id ->
              Server.note_conn_xerror t.sconn;
              fail count (Format.asprintf "BadWindow %a" Xid.pp id)
          | exception Server.Bad_access msg ->
              Server.note_conn_xerror t.sconn;
              fail count ("BadAccess: " ^ msg)
          | exception Invalid_argument msg -> fail count msg)
  in
  loop 0

let submit t req =
  match submit_bytes t (Wire.encode_request req) with
  | Ok _ -> Ok ()
  | Error e -> Error e.error

(* Translate the window ids inside an event into the client's space. *)
let translate_event t (event : Event.t) : Event.t =
  let c = to_client_id t in
  match event with
  | Event.Map_request { window; parent } ->
      Event.Map_request { window = c window; parent = c parent }
  | Event.Configure_request { window; parent; changes } ->
      Event.Configure_request { window = c window; parent = c parent; changes }
  | Event.Map_notify { window } -> Event.Map_notify { window = c window }
  | Event.Unmap_notify { window } -> Event.Unmap_notify { window = c window }
  | Event.Destroy_notify { window } -> Event.Destroy_notify { window = c window }
  | Event.Reparent_notify { window; parent; pos } ->
      Event.Reparent_notify { window = c window; parent = c parent; pos }
  | Event.Configure_notify r -> Event.Configure_notify { r with window = c r.window }
  | Event.Property_notify r -> Event.Property_notify { r with window = c r.window }
  | Event.Button_press r -> Event.Button_press { r with window = c r.window }
  | Event.Button_release r -> Event.Button_release { r with window = c r.window }
  | Event.Key_press r -> Event.Key_press { r with window = c r.window }
  | Event.Motion_notify r -> Event.Motion_notify { r with window = c r.window }
  | Event.Enter_notify { window } -> Event.Enter_notify { window = c window }
  | Event.Leave_notify { window } -> Event.Leave_notify { window = c window }
  | Event.Focus_in { window } -> Event.Focus_in { window = c window }
  | Event.Focus_out { window } -> Event.Focus_out { window = c window }
  | Event.Expose r -> Event.Expose { r with window = c r.window }
  | Event.Client_message r -> Event.Client_message { r with window = c r.window }

let flush_batch_bytes t =
  Profile.alloc_section t.profiler t.sec_encode @@ fun () ->
  (if Tracing.enabled (Server.tracer t.server) then
     Tracing.span (Server.tracer t.server) "wire.flush"
       ~attrs:[ ("conn", Server.conn_name t.sconn) ]
   else fun f -> f ())
  @@ fun () ->
  match Server.flush_batch t.sconn with
  | [] -> ""
  | events ->
      let events = Wire.compress_events (List.map (translate_event t) events) in
      let a = t.enc in
      Wire.A.reset a;
      Wire.encode_batch_into a events;
      let bytes = Wire.A.contents a in
      t.received <- t.received + String.length bytes;
      bytes

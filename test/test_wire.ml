module Wire = Swm_xlib.Wire
module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid
module Event = Swm_xlib.Event
module Keysym = Swm_xlib.Keysym
module Region = Swm_xlib.Region

let check = Alcotest.check

let roundtrip_request req =
  let bytes = Wire.encode_request req in
  check Alcotest.int "4-byte aligned" 0 (String.length bytes mod 4);
  match Wire.decode_request bytes ~pos:0 with
  | Ok (decoded, next) ->
      check Alcotest.int "consumed whole frame" (String.length bytes) next;
      check Alcotest.bool
        (Format.asprintf "roundtrip %a" Wire.pp_request req)
        true (decoded = req)
  | Error msg -> Alcotest.failf "decode failed: %s" msg

let test_request_roundtrips () =
  List.iter roundtrip_request
    [
      Wire.Create_window
        {
          wid = Xid.of_int 42;
          parent = Xid.of_int 1;
          geom = Geom.rect (-5) 10 300 200;
          border = 2;
          override_redirect = true;
        };
      Wire.Destroy_window (Xid.of_int 7);
      Wire.Map_window (Xid.of_int 7);
      Wire.Unmap_window (Xid.of_int 9);
      Wire.Configure_window
        ( Xid.of_int 12,
          { Event.no_changes with cx = Some (-20); cw = Some 640;
            cstack = Some Event.Above } );
      Wire.Configure_window
        (Xid.of_int 12,
         { Event.no_changes with cstack = Some Event.Below;
           csibling = Some (Xid.of_int 3) });
      Wire.Reparent_window
        { window = Xid.of_int 4; parent = Xid.of_int 5; pos = Geom.point (-1) 2 };
      Wire.Change_property
        { window = Xid.of_int 3; name = "WM_NAME"; value = "hello world" };
      Wire.Delete_property { window = Xid.of_int 3; name = "WM_NAME" };
      Wire.Select_input
        {
          window = Xid.of_int 2;
          masks = [ Event.Substructure_redirect; Event.Key_press_mask ];
        };
      Wire.Grab_pointer (Xid.of_int 8);
      Wire.Ungrab_pointer;
      Wire.Warp_pointer (Geom.point 500 400);
      Wire.Set_input_focus (Xid.of_int 2);
      Wire.Shape_rectangles
        { window = Xid.of_int 6; rects = [ Geom.rect 0 0 4 4; Geom.rect 8 0 4 4 ] };
      Wire.Add_to_save_set (Xid.of_int 2);
      Wire.Remove_from_save_set (Xid.of_int 2);
    ]

let test_stream_decoding () =
  let reqs =
    [ Wire.Map_window (Xid.of_int 1); Wire.Ungrab_pointer;
      Wire.Warp_pointer (Geom.point 1 2) ]
  in
  let bytes = String.concat "" (List.map Wire.encode_request reqs) in
  match Wire.decode_requests bytes with
  | Ok decoded -> check Alcotest.bool "stream" true (decoded = reqs)
  | Error msg -> Alcotest.fail msg

let test_truncated_rejected () =
  let bytes = Wire.encode_request (Wire.Map_window (Xid.of_int 1)) in
  let cut = String.sub bytes 0 (String.length bytes - 2) in
  (match Wire.decode_request cut ~pos:0 with
  | Ok _ -> Alcotest.fail "expected truncation error"
  | Error _ -> ());
  match Wire.decode_requests "garbage!" with
  | Ok _ -> Alcotest.fail "expected garbage error"
  | Error _ -> ()

let roundtrip_event event =
  let bytes = Wire.encode_event event in
  check Alcotest.int "32-byte frame" 32 (String.length bytes);
  match Wire.decode_event bytes ~pos:0 with
  | Ok (decoded, 32) ->
      check Alcotest.bool
        (Format.asprintf "roundtrip %a" Event.pp event)
        true (decoded = event)
  | Ok (_, n) -> Alcotest.failf "bad frame length %d" n
  | Error msg -> Alcotest.failf "decode failed: %s" msg

let test_event_roundtrips () =
  let w = Xid.of_int 5 in
  List.iter roundtrip_event
    [
      Event.Map_request { window = w; parent = Xid.of_int 1 };
      Event.Map_notify { window = w };
      Event.Unmap_notify { window = w };
      Event.Destroy_notify { window = w };
      Event.Reparent_notify { window = w; parent = Xid.of_int 2; pos = Geom.point 3 4 };
      Event.Configure_notify
        { window = w; geom = Geom.rect (-4) 9 120 80; border = 1; synthetic = true };
      Event.Property_notify { window = w; name = "WM_NAME"; deleted = false };
      Event.Button_press
        {
          window = w;
          button = 2;
          mods = Keysym.mods ~shift:true ();
          pos = Geom.point 1 2;
          root_pos = Geom.point 100 200;
        };
      Event.Button_release
        {
          window = w;
          button = 1;
          mods = Keysym.no_mods;
          pos = Geom.point 0 0;
          root_pos = Geom.point 0 0;
        };
      Event.Key_press
        {
          window = w;
          keysym = "Up";
          mods = Keysym.mods ~meta:true ();
          pos = Geom.point 9 9;
          root_pos = Geom.point 9 9;
        };
      Event.Motion_notify { window = w; pos = Geom.point 5 6; root_pos = Geom.point 7 8 };
      Event.Enter_notify { window = w };
      Event.Leave_notify { window = w };
      Event.Expose { window = w; damage = None };
      Event.Expose { window = w; damage = Some { Geom.x = 4; y = 8; w = 40; h = 20 } };
      Event.Client_message { window = w; name = "WM_PROTOCOLS"; data = "DELETE" };
    ]

(* -------- a client living entirely on the wire -------- *)

let test_wire_client_under_wm () =
  let module Wire_conn = Swm_xlib.Wire_conn in
  let server = Server.create () in
  let wm =
    Swm_core.Wm.start
      ~resources:
        [ Swm_core.Templates.open_look; "swm*virtualDesktop: False\nswm*rootPanels:\n" ]
      server
  in
  (* The client knows nothing of the in-process API: ids it chose, bytes it
     sends. *)
  let wc = Wire_conn.create server ~name:"wireclient" in
  let wid = Wire_conn.fresh_id wc in
  let root = Wire_conn.root_id wc ~screen:0 in
  let ok = function Ok _ -> () | Error msg -> Alcotest.fail msg in
  ok
    (Wire_conn.submit wc
       (Wire.Create_window
          { wid; parent = root; geom = Geom.rect 50 60 300 200; border = 0;
            override_redirect = false }));
  ok
    (Wire_conn.submit wc
       (Wire.Change_property { window = wid; name = "WM_NAME"; value = "wired" }));
  ok
    (Wire_conn.submit wc
       (Wire.Select_input { window = wid; masks = [ Event.Structure_notify ] }));
  ok (Wire_conn.submit wc (Wire.Map_window wid));
  ignore (Swm_core.Wm.step wm);
  (* The WM managed it. *)
  let server_id = Option.get (Wire_conn.resolve wc wid) in
  let client = Option.get (Swm_core.Wm.find_client wm server_id) in
  check Alcotest.bool "decorated" true (client.Swm_core.Ctx.deco <> None);
  check Alcotest.bool "viewable" true (Server.is_viewable server server_id);
  (* The client's events arrive as one batch frame, in its own id space. *)
  let bytes = Wire_conn.flush_batch_bytes wc in
  check Alcotest.bool "received event bytes" true (String.length bytes > 0);
  let decoded =
    match Wire.decode_batch bytes ~pos:0 with
    | Ok (events, next) ->
        check Alcotest.int "one frame" (String.length bytes) next;
        events
    | Error msg -> Alcotest.fail msg
  in
  check Alcotest.bool "reparent seen with client id" true
    (List.exists
       (function
         | Event.Reparent_notify { window; _ } -> Xid.equal window wid
         | _ -> false)
       decoded);
  check Alcotest.bool "traffic counted" true
    (Wire_conn.bytes_sent wc > 0 && Wire_conn.bytes_received wc > 0);
  (* Unknown client ids error cleanly. *)
  match Wire_conn.submit wc (Wire.Map_window (Xid.of_int 987654)) with
  | Ok () -> Alcotest.fail "expected unknown-id error"
  | Error _ -> ()

(* -------- what execute translates -------- *)

(* A restack names its sibling by client id; the server must see the
   sibling's server id, or the window lands on top instead. *)
let test_restack_below_client_sibling () =
  let module Wire_conn = Swm_xlib.Wire_conn in
  let server = Server.create () in
  let wc = Wire_conn.create server ~name:"stacker" in
  let root = Wire_conn.root_id wc ~screen:0 in
  let create () =
    let wid = Wire_conn.fresh_id wc in
    (match
       Wire_conn.submit wc
         (Wire.Create_window
            { wid; parent = root; geom = Geom.rect 0 0 50 50; border = 0;
              override_redirect = false })
     with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg);
    wid
  in
  let a = create () in
  let b = create () in
  let c = create () in
  let sid w = Option.get (Wire_conn.resolve wc w) in
  let order () =
    List.filter
      (fun w -> List.exists (Xid.equal w) [ sid a; sid b; sid c ])
      (Server.children_of server (Server.root server ~screen:0))
  in
  check Alcotest.(list int) "created bottom to top"
    (List.map Xid.to_int [ sid a; sid b; sid c ])
    (List.map Xid.to_int (order ()));
  (match
     Wire_conn.submit wc
       (Wire.Configure_window
          (c, { Event.no_changes with cstack = Some Event.Below; csibling = Some a }))
   with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  check Alcotest.(list int) "c restacked below a"
    (List.map Xid.to_int [ sid c; sid a; sid b ])
    (List.map Xid.to_int (order ()))

(* WarpPointer carries no screen: it moves the pointer on the screen the
   pointer is on. *)
let test_warp_stays_on_pointer_screen () =
  let module Wire_conn = Swm_xlib.Wire_conn in
  let server =
    Server.create ~screens:[ Server.default_screen; Server.default_screen ] ()
  in
  Server.warp_pointer server ~screen:1 (Geom.point 10 10);
  let wc = Wire_conn.create server ~name:"warper" in
  (match Wire_conn.submit wc (Wire.Warp_pointer (Geom.point 200 100)) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  check Alcotest.int "still on screen 1" 1 (Server.pointer_screen server);
  check Alcotest.bool "at the warped position" true
    (Server.pointer_pos server = Geom.point 200 100)

(* -------- partial-batch accounting -------- *)

let test_partial_batch_accounting () =
  let module Wire_conn = Swm_xlib.Wire_conn in
  let module Metrics = Swm_xlib.Metrics in
  let server = Server.create () in
  let wc = Wire_conn.create server ~name:"batcher" in
  let root = Wire_conn.root_id wc ~screen:0 in
  let wid1 = Wire_conn.fresh_id wc and wid2 = Wire_conn.fresh_id wc in
  let create wid =
    Wire.encode_request
      (Wire.Create_window
         { wid; parent = root; geom = Geom.rect 0 0 50 50; border = 0;
           override_redirect = false })
  in
  (* Two good frames, then garbage: the error must say how many requests
     executed before the decoder choked, and both windows must exist. *)
  let batch = create wid1 ^ create wid2 ^ "GARBAGE!" in
  (match Wire_conn.submit_bytes wc batch with
  | Ok n -> Alcotest.failf "expected decode error, got Ok %d" n
  | Error { Wire_conn.executed; error } ->
      check Alcotest.int "executed before failure" 2 executed;
      check Alcotest.bool "error text" true (String.length error > 0));
  check Alcotest.bool "first window created" true
    (Wire_conn.resolve wc wid1 <> None);
  check Alcotest.bool "second window created" true
    (Wire_conn.resolve wc wid2 <> None);
  check Alcotest.int "rejected frame counted" 1
    (Metrics.counter_value (Server.metrics server) "wire.rejected_frames");
  (* A server-side error mid-batch reports the same way: frame 1 maps an
     id the server never allocated. *)
  let bad =
    Wire.encode_request (Wire.Map_window wid1)
    ^ Wire.encode_request (Wire.Map_window (Xid.of_int 987654))
    ^ Wire.encode_request (Wire.Map_window wid2)
  in
  (match Wire_conn.submit_bytes wc bad with
  | Ok n -> Alcotest.failf "expected unknown-id error, got Ok %d" n
  | Error { Wire_conn.executed; _ } ->
      check Alcotest.int "one executed before unknown id" 1 executed);
  check Alcotest.int "second rejection counted" 2
    (Metrics.counter_value (Server.metrics server) "wire.rejected_frames")

(* -------- properties -------- *)

let request_gen =
  let open QCheck2.Gen in
  let xid = map Xid.of_int (int_range 1 10000) in
  let rect =
    map
      (fun (x, y, w, h) -> Geom.rect x y (w + 1) (h + 1))
      (quad (int_range (-2000) 2000) (int_range (-2000) 2000) (int_range 0 4000)
         (int_range 0 4000))
  in
  let name = oneofl [ "WM_NAME"; "WM_CLASS"; "SWM_ROOT"; "X"; "" ] in
  oneof
    [
      map
        (fun ((wid, parent), geom) ->
          Wire.Create_window { wid; parent; geom; border = 1; override_redirect = false })
        (pair (pair xid xid) rect);
      map (fun w -> Wire.Destroy_window w) xid;
      map (fun w -> Wire.Map_window w) xid;
      map
        (fun (w, (x, h)) ->
          Wire.Configure_window
            (w, { Event.no_changes with cx = Some x; ch = Some h }))
        (pair xid (pair (int_range (-500) 500) (int_range 1 500)));
      map
        (fun (w, (n, v)) -> Wire.Change_property { window = w; name = n; value = v })
        (pair xid (pair name (small_string ~gen:printable)));
      map
        (fun (w, bits) ->
          Wire.Select_input
            {
              window = w;
              masks =
                List.filteri
                  (fun i _ -> bits land (1 lsl i) <> 0)
                  [ Event.Substructure_redirect; Event.Structure_notify;
                    Event.Button_press_mask; Event.Exposure_mask ];
            })
        (pair xid (int_range 0 15));
      map (fun (x, y) -> Wire.Warp_pointer (Geom.point x y))
        (pair (int_range (-100) 3000) (int_range (-100) 3000));
      map
        (fun (w, rects) -> Wire.Shape_rectangles { window = w; rects })
        (pair xid (list_size (int_range 0 5) rect));
    ]

let prop_request_roundtrip =
  QCheck2.Test.make ~name:"wire request roundtrip" ~count:500 request_gen (fun req ->
      match Wire.decode_request (Wire.encode_request req) ~pos:0 with
      | Ok (decoded, _) -> decoded = req
      | Error _ -> false)

let prop_stream_roundtrip =
  QCheck2.Test.make ~name:"wire stream roundtrip" ~count:100
    QCheck2.Gen.(list_size (int_range 0 20) request_gen)
    (fun reqs ->
      let bytes = String.concat "" (List.map Wire.encode_request reqs) in
      match Wire.decode_requests bytes with
      | Ok decoded -> decoded = reqs
      | Error _ -> false)

let suite =
  [
    Alcotest.test_case "request roundtrips" `Quick test_request_roundtrips;
    Alcotest.test_case "stream decoding" `Quick test_stream_decoding;
    Alcotest.test_case "truncated frames rejected" `Quick test_truncated_rejected;
    Alcotest.test_case "event roundtrips" `Quick test_event_roundtrips;
    Alcotest.test_case "wire-only client under the WM" `Quick
      test_wire_client_under_wm;
    Alcotest.test_case "restack below a sibling named by client id" `Quick
      test_restack_below_client_sibling;
    Alcotest.test_case "warp stays on the pointer's screen" `Quick
      test_warp_stays_on_pointer_screen;
    Alcotest.test_case "partial-batch accounting" `Quick
      test_partial_batch_accounting;
    QCheck_alcotest.to_alcotest prop_request_roundtrip;
    QCheck_alcotest.to_alcotest prop_stream_roundtrip;
  ]

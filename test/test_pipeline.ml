(* The batched, coalescing event pipeline: ring buffers, X-style event
   compression, batch wire frames and the metrics that watch them. *)

module Ring = Swm_xlib.Ring
module Metrics = Swm_xlib.Metrics
module Server = Swm_xlib.Server
module Wire = Swm_xlib.Wire
module Geom = Swm_xlib.Geom
module Xid = Swm_xlib.Xid
module Event = Swm_xlib.Event
module Region = Swm_xlib.Region

let check = Alcotest.check

(* -------- ring buffer -------- *)

let test_ring_wraparound () =
  let r = Ring.create ~capacity:4 () in
  (* Interleave pushes and pops so head walks around the buffer, then grow
     past the initial capacity. *)
  for i = 1 to 3 do
    Ring.push r i
  done;
  check Alcotest.(option int) "pop 1" (Some 1) (Ring.pop r);
  check Alcotest.(option int) "pop 2" (Some 2) (Ring.pop r);
  for i = 4 to 12 do
    Ring.push r i
  done;
  check Alcotest.int "length" 10 (Ring.length r);
  check Alcotest.(option int) "peek oldest" (Some 3) (Ring.peek r);
  check Alcotest.(option int) "peek newest" (Some 12) (Ring.peek_back r);
  Ring.replace_back r 99;
  let drained = ref [] in
  let rec drain () =
    match Ring.pop r with
    | Some v ->
        drained := v :: !drained;
        drain ()
    | None -> ()
  in
  drain ();
  check
    Alcotest.(list int)
    "FIFO order preserved across wrap and growth"
    [ 3; 4; 5; 6; 7; 8; 9; 10; 11; 99 ]
    (List.rev !drained);
  check Alcotest.int "high water saw the peak" 10 (Ring.high_water r);
  check Alcotest.bool "replace_back on empty raises" true
    (match Ring.replace_back r 0 with
    | () -> false
    | exception Invalid_argument _ -> true)

(* -------- metrics registry -------- *)

let test_metrics_registry () =
  let m = Metrics.create () in
  let c = Metrics.counter m "events" in
  Metrics.incr c;
  Metrics.add c 4;
  check Alcotest.int "counter accumulates" 5 (Metrics.counter_value m "events");
  check Alcotest.int "same-name handle shares the cell" 5
    (Metrics.value (Metrics.counter m "events"));
  check Alcotest.int "missing counter reads 0" 0 (Metrics.counter_value m "nope");
  let g = Metrics.gauge m "depth" in
  Metrics.record_max g 3;
  Metrics.record_max g 9;
  Metrics.record_max g 5;
  check Alcotest.int "gauge keeps the max" 9 (Metrics.gauge_value m "depth");
  let h = Metrics.histogram m "sizes" in
  List.iter (Metrics.observe h) [ 0; 1; 2; 3; 100 ];
  check Alcotest.int "hist count" 5 (Metrics.hist_count h);
  check Alcotest.int "hist sum" 106 (Metrics.hist_sum h);
  check Alcotest.int "hist max" 100 (Metrics.hist_max h);
  let json = Metrics.to_json m in
  let contains needle =
    let nl = String.length needle and jl = String.length json in
    let rec at i = i + nl <= jl && (String.sub json i nl = needle || at (i + 1)) in
    at 0
  in
  check Alcotest.bool "json has all three sections" true
    (List.for_all contains
       [ "\"counters\""; "\"gauges\""; "\"histograms\""; "\"events\":5" ]);
  Metrics.reset m;
  check Alcotest.int "reset zeroes counters" 0 (Metrics.counter_value m "events");
  check Alcotest.int "held handles survive reset" 0 (Metrics.value c)

(* -------- queue compression -------- *)

let motion_setup () =
  let server = Server.create () in
  let conn = Server.connect server ~name:"watcher" in
  let root = Server.root server ~screen:0 in
  Server.select_input server conn root [ Event.Pointer_motion_mask ];
  (server, conn, root)

let test_motion_coalescing () =
  let server, conn, _root = motion_setup () in
  let m = Server.metrics server in
  for i = 1 to 100 do
    Server.warp_pointer server ~screen:0 (Geom.point i (i * 2))
  done;
  check Alcotest.bool "storm collapses to a handful of entries" true
    (Server.pending conn < 100);
  let events = Server.flush_batch conn in
  let last_motion =
    List.fold_left
      (fun acc e ->
        match e with Event.Motion_notify { root_pos; _ } -> Some root_pos | _ -> acc)
      None events
  in
  (match last_motion with
  | Some root_pos ->
      check Alcotest.bool "last motion is the final position" true
        (root_pos = Geom.point 100 200)
  | None -> Alcotest.fail "no motion delivered");
  check Alcotest.bool "coalesced counter saw the collapse" true
    (Metrics.counter_value m "events.coalesced" > 0);
  check Alcotest.int "enqueued = coalesced + pending-at-peak" 100
    (Metrics.counter_value m "events.enqueued");
  check Alcotest.bool "delivered counts what flush returned" true
    (Metrics.counter_value m "events.delivered" = List.length events)

let test_coalesce_off_is_naive () =
  let server, conn, _root = motion_setup () in
  Server.set_coalesce conn false;
  for i = 1 to 50 do
    Server.warp_pointer server ~screen:0 (Geom.point i i)
  done;
  check Alcotest.int "naive queue keeps every motion" 50 (Server.pending conn)

let test_configure_folding () =
  let server = Server.create () in
  let wm = Server.connect server ~name:"wm" in
  let watcher = Server.connect server ~name:"watcher" in
  let root = Server.root server ~screen:0 in
  let win =
    Server.create_window server wm ~parent:root ~geom:(Geom.rect 0 0 100 100) ()
  in
  Server.select_input server watcher win [ Event.Structure_notify ];
  for i = 1 to 20 do
    Server.move_resize server wm win (Geom.rect i i 100 100)
  done;
  let configs =
    List.filter_map
      (function Event.Configure_notify { geom; _ } -> Some geom | _ -> None)
      (Server.flush_batch watcher)
  in
  check Alcotest.int "20 moves fold to one ConfigureNotify" 1 (List.length configs);
  check Alcotest.bool "folded event carries the final geometry" true
    (List.hd configs = Geom.rect 20 20 100 100)

let test_expose_region_merge () =
  let server = Server.create () in
  let owner = Server.connect server ~name:"app" in
  let root = Server.root server ~screen:0 in
  let win =
    Server.create_window server owner ~parent:root ~geom:(Geom.rect 0 0 200 200) ()
  in
  Server.select_input server owner win [ Event.Exposure_mask ];
  let rects =
    [ Geom.rect 0 0 50 50; Geom.rect 25 25 50 50; Geom.rect 100 100 20 20 ]
  in
  List.iter (Server.damage_window server win) rects;
  check Alcotest.int "three overlapping damages are one queue entry" 1
    (Server.pending owner);
  let delivered =
    List.filter_map
      (function Event.Expose { damage = Some r; _ } -> Some r | _ -> None)
      (Server.flush_batch owner)
  in
  check Alcotest.bool "delivered damage covers exactly the union" true
    (Region.equal (Region.of_rects delivered) (Region.of_rects rects))

let test_read_events_max () =
  let server, conn, _root = motion_setup () in
  Server.set_coalesce conn false;
  for i = 1 to 10 do
    Server.warp_pointer server ~screen:0 (Geom.point i i)
  done;
  check Alcotest.int "read_events_stamped honours max" 3
    (List.length (Server.read_events_stamped conn ~max:3));
  check Alcotest.int "rest stays queued" 7 (Server.pending conn);
  check Alcotest.int "flush drains the rest" 7
    (List.length (Server.flush_batch conn));
  check Alcotest.int "batch histogram recorded both reads" 2
    (Metrics.hist_count
       (Metrics.histogram (Server.metrics server) "delivery.batch_size"))

(* -------- properties -------- *)

let point_gen =
  QCheck2.Gen.(map (fun (x, y) -> Geom.point x y)
      (pair (int_range 0 1151) (int_range 0 899)))

(* Property 1: a coalesced motion stream reaches the same final pointer
   position as the naive one, with no more (usually far fewer) events. *)
let prop_motion_stream_equiv =
  QCheck2.Test.make ~name:"coalesced motion = naive motion, final state"
    ~count:100
    QCheck2.Gen.(list_size (int_range 1 80) point_gen)
    (fun points ->
      let final (conn : Server.conn) =
        List.fold_left
          (fun acc e ->
            match e with Event.Motion_notify r -> Some r.root_pos | _ -> acc)
          None
          (Server.flush_batch conn)
      in
      let run ~coalesce =
        let server, conn, _root = motion_setup () in
        Server.set_coalesce conn coalesce;
        List.iter (Server.warp_pointer server ~screen:0) points;
        (final conn, Server.pointer_pos server)
      in
      let naive_final, naive_pos = run ~coalesce:false in
      let coal_final, coal_pos = run ~coalesce:true in
      naive_final = coal_final && naive_pos = coal_pos)

let rect_gen =
  QCheck2.Gen.(
    map
      (fun (((x, y), w), h) -> Geom.rect x y w h)
      (pair (pair (pair (int_range 0 150) (int_range 0 150)) (int_range 1 50))
         (int_range 1 50)))

(* Property 2: however the queue merges expose damage, the union of what is
   delivered is exactly the union of what was posted. *)
let prop_expose_union_exact =
  QCheck2.Test.make ~name:"merged expose damage covers exactly the union"
    ~count:200
    QCheck2.Gen.(list_size (int_range 1 20) rect_gen)
    (fun rects ->
      let server = Server.create () in
      let owner = Server.connect server ~name:"app" in
      let root = Server.root server ~screen:0 in
      let win =
        Server.create_window server owner ~parent:root
          ~geom:(Geom.rect 0 0 200 200) ()
      in
      Server.select_input server owner win [ Event.Exposure_mask ];
      List.iter (Server.damage_window server win) rects;
      let delivered =
        List.filter_map
          (function Event.Expose { damage = Some r; _ } -> Some r | _ -> None)
          (Server.flush_batch owner)
      in
      Region.equal (Region.of_rects delivered) (Region.of_rects rects))

let event_gen =
  let open QCheck2.Gen in
  let xid = map Xid.of_int (int_range 1 5000) in
  oneof
    [
      map (fun w -> Event.Map_notify { window = w }) xid;
      map (fun w -> Event.Unmap_notify { window = w }) xid;
      map (fun w -> Event.Destroy_notify { window = w }) xid;
      map2
        (fun w p -> Event.Motion_notify { window = w; pos = p; root_pos = p })
        xid point_gen;
      map2
        (fun w r ->
          Event.Configure_notify { window = w; geom = r; border = 1; synthetic = false })
        xid rect_gen;
      map (fun w -> Event.Expose { window = w; damage = None }) xid;
      map2 (fun w r -> Event.Expose { window = w; damage = Some r }) xid rect_gen;
      map (fun w -> Event.Enter_notify { window = w }) xid;
    ]

(* Property 3: batch frames are byte-replayable — decode inverts encode, and
   re-encoding the decode is byte-identical. *)
let prop_batch_roundtrip =
  QCheck2.Test.make ~name:"batch frame roundtrips byte-identically" ~count:200
    QCheck2.Gen.(list_size (int_range 0 40) event_gen)
    (fun events ->
      let bytes = Wire.encode_batch events in
      match Wire.decode_batch bytes ~pos:0 with
      | Error msg -> QCheck2.Test.fail_reportf "decode_batch: %s" msg
      | Ok (decoded, next) ->
          next = String.length bytes
          && decoded = events
          && String.equal (Wire.encode_batch decoded) bytes)

let suite =
  [
    Alcotest.test_case "ring buffer wraps and grows" `Quick test_ring_wraparound;
    Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
    Alcotest.test_case "motion storm coalesces" `Quick test_motion_coalescing;
    Alcotest.test_case "set_coalesce false is naive" `Quick test_coalesce_off_is_naive;
    Alcotest.test_case "configure sequences fold" `Quick test_configure_folding;
    Alcotest.test_case "expose damage merges via region" `Quick
      test_expose_region_merge;
    Alcotest.test_case "read_events batch limit" `Quick test_read_events_max;
    QCheck_alcotest.to_alcotest prop_motion_stream_equiv;
    QCheck_alcotest.to_alcotest prop_expose_union_exact;
    QCheck_alcotest.to_alcotest prop_batch_roundtrip;
  ]

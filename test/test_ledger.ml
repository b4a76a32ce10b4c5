(* The event lifecycle ledger: every event that enters a queue must be
   accounted for by exactly one fate — delivered, coalesced into a
   survivor, folded, dropped as the oldest droppable, shed at the cap,
   skipped by the governor, or evicted with its connection — or still be
   pending.  The conservation invariant

     enqueued = delivered + coalesced + folded + dropped_oldest + shed
                + skipped + evicted_with_conn + pending

   is checked here across every path that can consume an event, and a
   qcheck property replays seeded storms to show the fate counts are
   deterministic. *)

module Server = Swm_xlib.Server
module Metrics = Swm_xlib.Metrics
module Event = Swm_xlib.Event
module Geom = Swm_xlib.Geom
module Region = Swm_xlib.Region
module Json = Swm_xlib.Json

let check = Alcotest.check

let balance_is_zero what (lc : Server.ledger_counts) =
  if lc.lc_balance <> 0 then
    Alcotest.failf
      "%s: ledger out of balance by %d (enqueued %d, delivered %d, coalesced \
       %d, folded %d, dropped %d, shed %d, skipped %d, evicted %d, pending %d)"
      what lc.lc_balance lc.lc_enqueued lc.lc_delivered lc.lc_coalesced
      lc.lc_folded lc.lc_dropped lc.lc_shed lc.lc_skipped lc.lc_evicted
      lc.lc_pending

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec at i =
    i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1))
  in
  at 0

let motion_setup () =
  let server = Server.create () in
  let conn = Server.connect server ~name:"watcher" in
  let root = Server.root server ~screen:0 in
  Server.select_input server conn root [ Event.Pointer_motion_mask ];
  (server, conn, root)

(* -------- per-path conservation -------- *)

let test_motion_coalescing_balances () =
  let server, conn, _root = motion_setup () in
  for i = 1 to 100 do
    Server.warp_pointer server ~screen:0 (Geom.point i (i * 2))
  done;
  let lc = Server.ledger_counts server in
  check Alcotest.int "all 100 motions entered the ledger" 100 lc.lc_enqueued;
  check Alcotest.bool "the storm coalesced" true (lc.lc_coalesced > 0);
  balance_is_zero "queued storm" lc;
  let events = Server.flush_batch conn in
  let lc = Server.ledger_counts server in
  check Alcotest.int "flush delivered the survivors" (List.length events)
    lc.lc_delivered;
  check Alcotest.int "nothing left pending" 0 lc.lc_pending;
  balance_is_zero "drained storm" lc;
  (* The fate records name the survivor each victim merged into. *)
  let fates = Server.fate_json server () in
  check Alcotest.bool "fate records show the coalesce lineage" true
    (contains fates "\"fate\": \"coalesced_into\"");
  check Alcotest.bool "fate records show deliveries" true
    (contains fates "\"fate\": \"delivered\"")

let test_expose_merge_balances () =
  let server = Server.create () in
  let conn = Server.connect server ~name:"app" in
  let root = Server.root server ~screen:0 in
  let win =
    Server.create_window server conn ~parent:root ~geom:(Geom.rect 0 0 200 200)
      ()
  in
  Server.select_input server conn win [ Event.Exposure_mask ];
  List.iter
    (Server.damage_window server win)
    [ Geom.rect 0 0 50 50; Geom.rect 25 25 50 50; Geom.rect 100 100 20 20 ];
  let lc = Server.ledger_counts server in
  check Alcotest.int "three damages entered" 3 lc.lc_enqueued;
  check Alcotest.int "two merged into the first entry" 2 lc.lc_coalesced;
  check Alcotest.int "one entry pending" 1 lc.lc_pending;
  balance_is_zero "merged damage" lc;
  (* One Damage entry may expand to several Expose rects; the ledger
     counts the entry once. *)
  let events = Server.flush_batch conn in
  check Alcotest.bool "expansion delivered at least one Expose" true
    (List.length events >= 1);
  let lc = Server.ledger_counts server in
  check Alcotest.int "entry delivered once, not per rect" 1 lc.lc_delivered;
  balance_is_zero "delivered damage" lc

(* X sends no Expose for an empty area: damage with no area queues
   nothing, so the ledger's deliveries and the delivered-events counter
   agree. *)
let test_empty_damage_queues_nothing () =
  let server = Server.create () in
  let conn = Server.connect server ~name:"app" in
  let win =
    Server.create_window server conn ~parent:(Server.root server ~screen:0)
      ~geom:(Geom.rect 0 0 200 200) ()
  in
  Server.select_input server conn win [ Event.Exposure_mask ];
  Server.damage_window server win (Geom.rect 0 0 0 10);
  Server.damage_window server win (Geom.rect 5 5 10 0);
  check Alcotest.int "no area, nothing queued" 0
    (Server.ledger_counts server).lc_enqueued;
  check Alcotest.int "no event read" 0 (List.length (Server.flush_batch conn));
  Server.damage_window server win (Geom.rect 0 0 10 10);
  check Alcotest.int "an area is read" 1 (List.length (Server.flush_batch conn));
  let lc = Server.ledger_counts server in
  check Alcotest.int "ledger deliveries = events.delivered"
    (Metrics.counter_value (Server.metrics server) "events.delivered")
    lc.lc_delivered;
  check Alcotest.int "one delivery" 1 lc.lc_delivered;
  balance_is_zero "empty damage" lc

let test_flood_shed_balances () =
  let server = Server.create () in
  Server.set_queue_cap server 64;
  Server.set_health_thresholds server
    {
      Swm_xlib.Health.default_thresholds with
      quarantine_score = infinity;
      evict_score = infinity;
    };
  let conn = Server.connect server ~name:"hog" in
  let root = Server.root server ~screen:0 in
  for _ = 1 to 96 do
    ignore
      (Server.create_window server conn ~parent:root
         ~geom:(Geom.rect 0 0 20 20) ())
  done;
  Server.flood_conn server conn ~burst:10_000;
  let lc = Server.ledger_counts server in
  check Alcotest.bool "the cap shed events" true
    (lc.lc_shed > 0 || lc.lc_dropped > 0);
  balance_is_zero "flooded queue" lc;
  ignore (Server.flush_batch conn);
  balance_is_zero "drained flooded queue" (Server.ledger_counts server)

let test_governor_skip_reclassifies () =
  let server, conn, _root = motion_setup () in
  Server.warp_pointer server ~screen:0 (Geom.point 5 5);
  match Server.read_events_stamped conn ~max:4 with
  | [ (event, stamp) ] ->
      let lc = Server.ledger_counts server in
      check Alcotest.int "delivered before the skip" 1 lc.lc_delivered;
      Server.ledger_skip conn event stamp;
      (* Reclassifying twice (one seq, several expanded events) must not
         double-count. *)
      Server.ledger_skip conn event stamp;
      let lc = Server.ledger_counts server in
      check Alcotest.int "delivery reclassified away" 0 lc.lc_delivered;
      check Alcotest.int "counted as skipped exactly once" 1 lc.lc_skipped;
      balance_is_zero "skipped event" lc
  | other -> Alcotest.failf "expected one motion, got %d" (List.length other)

let test_eviction_flushes_pending () =
  let server, conn, _root = motion_setup () in
  Server.set_coalesce conn false;
  for i = 1 to 7 do
    Server.warp_pointer server ~screen:0 (Geom.point i i)
  done;
  check Alcotest.int "seven queued" 7 (Server.pending conn);
  Server.disconnect server conn;
  let lc = Server.ledger_counts server in
  check Alcotest.int "still-queued entries became evictions" 7 lc.lc_evicted;
  check Alcotest.int "nothing pending after the eviction" 0 lc.lc_pending;
  balance_is_zero "evicted connection" lc;
  check Alcotest.bool "fate records name the eviction" true
    (contains (Server.fate_json server ()) "\"fate\": \"evicted_with_conn\"")

let test_disarmed_ledger_still_balances () =
  let server, conn, _root = motion_setup () in
  Server.set_ledger server false;
  check Alcotest.bool "reads back disarmed" false (Server.ledger_enabled server);
  for i = 1 to 40 do
    Server.warp_pointer server ~screen:0 (Geom.point i i)
  done;
  ignore (Server.flush_batch conn);
  (* Conservation is unconditional; only timestamps/records are gated. *)
  let lc = Server.ledger_counts server in
  check Alcotest.int "disarmed ledger still counts" 40 lc.lc_enqueued;
  balance_is_zero "disarmed storm" lc;
  check Alcotest.bool "no queue-residency samples while disarmed" true
    (Metrics.hist_count
       (Metrics.labeled_histogram
          (Metrics.histogram_family (Server.metrics server) ~key:"event"
             "event.queue_ns")
          "MotionNotify")
    = 0);
  check Alcotest.bool "json reflects the armed flag" true
    (contains (Server.ledger_json server) "\"armed\": false")

let test_queue_residency_observed_when_armed () =
  let server, conn, _root = motion_setup () in
  for i = 1 to 10 do
    Server.warp_pointer server ~screen:0 (Geom.point i i)
  done;
  ignore (Server.flush_batch conn);
  check Alcotest.bool "armed ledger measures queue residency" true
    (Metrics.hist_count
       (Metrics.labeled_histogram
          (Metrics.histogram_family (Server.metrics server) ~key:"event"
             "event.queue_ns")
          "MotionNotify")
    > 0)

let test_fate_json_filters () =
  let server = Server.create () in
  let a = Server.connect server ~name:"alpha" in
  let b = Server.connect server ~name:"beta" in
  let root = Server.root server ~screen:0 in
  Server.select_input server a root [ Event.Pointer_motion_mask ];
  let win =
    Server.create_window server b ~parent:root ~geom:(Geom.rect 0 0 50 50) ()
  in
  Server.select_input server b win [ Event.Exposure_mask ];
  Server.warp_pointer server ~screen:0 (Geom.point 3 3);
  Server.damage_window server win (Geom.rect 0 0 10 10);
  ignore (Server.flush_batch a);
  ignore (Server.flush_batch b);
  let only_alpha = Server.fate_json server ~conn:"alpha" () in
  check Alcotest.bool "conn filter keeps alpha" true
    (contains only_alpha "\"conn\": \"alpha\"");
  check Alcotest.bool "conn filter drops beta" false
    (contains only_alpha "\"conn\": \"beta\"");
  let only_win = Server.fate_json server ~window:(Swm_xlib.Xid.to_int win) () in
  check Alcotest.bool "window filter keeps the damage" true
    (contains only_win "\"event\": \"Expose\"");
  check Alcotest.bool "window filter drops the motion" false
    (contains only_win "\"event\": \"MotionNotify\"")

(* More events than the 512-slot fate window: f.query(fate)'s payload keeps
   exactly the newest 512 records, oldest first. *)
let test_fate_window_wraps () =
  let server, conn, _root = motion_setup () in
  Server.set_coalesce conn false;
  (* Drained every 100 warps, so the queue cap never sheds. *)
  let seqs =
    List.concat_map
      (fun batch ->
        for i = 1 to 100 do
          Server.warp_pointer server ~screen:0 (Geom.point (batch + i) i)
        done;
        List.map (fun (_, stamp) -> stamp.Server.seq)
          (Server.read_events_stamped conn ~max:max_int))
      [ 0; 100; 200; 300; 400; 500; 600 ]
  in
  check Alcotest.int "every motion delivered" 700 (List.length seqs);
  let fates =
    match Json.parse (Server.fate_json server ()) with
    | Ok json -> (
        match Option.bind (Json.member "fates" json) Json.to_list with
        | Some l -> l
        | None -> Alcotest.fail "fate_json: no fates list")
    | Error msg -> Alcotest.failf "fate_json does not parse: %s" msg
  in
  let fate_seqs =
    List.map
      (fun r ->
        match Option.bind (Json.member "seq" r) Json.to_int with
        | Some s -> s
        | None -> Alcotest.fail "fate record without a seq")
      fates
  in
  check Alcotest.(list int) "the newest 512 deliveries, oldest first"
    (List.filteri (fun i _ -> i >= 700 - 512) seqs)
    fate_seqs

(* -------- properties -------- *)

(* A seeded storm: motions, damages and window churn against two client
   connections, drained partway through and fully at the end. *)
let run_storm ~seed ~ops =
  let server = Server.create () in
  Server.set_queue_cap server 48;
  Server.set_health_thresholds server
    {
      Swm_xlib.Health.default_thresholds with
      quarantine_score = infinity;
      evict_score = infinity;
    };
  let watcher = Server.connect server ~name:"watcher" in
  let app = Server.connect server ~name:"app" in
  let root = Server.root server ~screen:0 in
  Server.select_input server watcher root [ Event.Pointer_motion_mask ];
  let win =
    Server.create_window server app ~parent:root ~geom:(Geom.rect 0 0 300 300)
      ()
  in
  Server.select_input server app win [ Event.Exposure_mask ];
  let rng = Random.State.make [| seed |] in
  for _ = 1 to ops do
    match Random.State.int rng 4 with
    | 0 ->
        Server.warp_pointer server ~screen:0
          (Geom.point (Random.State.int rng 500) (Random.State.int rng 400))
    | 1 ->
        Server.damage_window server win
          (Geom.rect
             (Random.State.int rng 250)
             (Random.State.int rng 250)
             (1 + Random.State.int rng 50)
             (1 + Random.State.int rng 50))
    | 2 -> Server.flood_conn server watcher ~burst:(Random.State.int rng 64)
    | _ ->
        if Random.State.bool rng then ignore (Server.flush_batch watcher)
        else ignore (Server.flush_batch app)
  done;
  ignore (Server.flush_batch watcher);
  ignore (Server.flush_batch app);
  Server.ledger_counts server

let prop_fate_accounting_balances =
  QCheck2.Test.make ~name:"fate accounting balances exactly under storms"
    ~count:40
    QCheck2.Gen.(pair (int_range 1 1_000_000) (int_range 10 400))
    (fun (seed, ops) ->
      let lc = run_storm ~seed ~ops in
      lc.Server.lc_balance = 0 && lc.lc_enqueued > 0)

let prop_fate_counts_deterministic =
  QCheck2.Test.make ~name:"same-seed storms yield identical fate counts"
    ~count:20
    QCheck2.Gen.(pair (int_range 1 1_000_000) (int_range 10 300))
    (fun (seed, ops) ->
      let a = run_storm ~seed ~ops in
      let b = run_storm ~seed ~ops in
      a = b)

(* The WM's drain, [read_batch], against its spec, [read_events_stamped]:
   twin servers take the same random enqueues (motion and configure
   coalescing, multi-rect and empty damage, synthetic Expose, stalls,
   queue caps that shed and overrun, coalescing switched off,
   disconnects), and each read takes the same count from one twin through
   each path.  Events, stamps, ledger counts and the fate records agree;
   ingress times come from each twin's own clock, so they are compared
   within a twin: every record and stamp of one seq carries that seq's
   ingress time, and later seqs never entered earlier. *)
type twin_op =
  | Warp of int * int
  | Configure of int * int
  | Damage_at of int * Geom.rect
  | Send_expose of int * Geom.rect option
  | Stall of int * bool
  | Coalesce of int * bool
  | Cap of int
  | Close of int
  | Read of int * int

let show_twin_op = function
  | Warp (x, y) -> Printf.sprintf "warp %d %d" x y
  | Configure (c, x) -> Printf.sprintf "configure %d %d" c x
  | Damage_at (c, r) -> Printf.sprintf "damage %d %d,%d %dx%d" c r.x r.y r.w r.h
  | Send_expose (c, None) -> Printf.sprintf "send-expose %d whole" c
  | Send_expose (c, Some r) -> Printf.sprintf "send-expose %d %d,%d %dx%d" c r.x r.y r.w r.h
  | Stall (c, b) -> Printf.sprintf "stall %d %b" c b
  | Coalesce (c, b) -> Printf.sprintf "coalesce %d %b" c b
  | Cap n -> Printf.sprintf "cap %d" n
  | Close c -> Printf.sprintf "close %d" c
  | Read (c, n) -> Printf.sprintf "read %d %d" c n

let twin_clients = 3

let twin_op_gen =
  QCheck2.Gen.(
    let c = int_range 0 (twin_clients - 1) in
    (* Small rectangles on a coarse grid, some without area, so damage
       both merges and stays disjoint. *)
    let rect =
      map4
        (fun x y w h -> Geom.rect (x * 20) (y * 20) (w * 10) (h * 10))
        (int_range 0 8) (int_range 0 8) (int_range 0 4) (int_range 0 4)
    in
    frequency
      [
        (4, map2 (fun x y -> Warp (x, y)) (int_range 0 400) (int_range 0 300));
        (3, map2 (fun c x -> Configure (c, x)) c (int_range 0 200));
        (4, map2 (fun c r -> Damage_at (c, r)) c rect);
        (1, map2 (fun c r -> Send_expose (c, r)) c (opt rect));
        (1, map2 (fun c b -> Stall (c, b)) c bool);
        (1, map2 (fun c b -> Coalesce (c, b)) c bool);
        (1, map (fun n -> Cap n) (int_range 1 12));
        (1, map (fun c -> Close c) c);
        (4, map2 (fun c n -> Read (c, n)) c (int_range 1 8));
      ])

(* One twin: [twin_clients] clients, each owning a window that it selects
   for Exposure and StructureNotify, and each selecting motion on the
   root.  Quarantine is off, so only the ops close a connection. *)
let twin () =
  let server = Server.create () in
  Server.set_health_thresholds server
    {
      Swm_xlib.Health.default_thresholds with
      quarantine_score = infinity;
      evict_score = infinity;
    };
  let root = Server.root server ~screen:0 in
  let clients =
    Array.init twin_clients (fun i ->
        let conn = Server.connect server ~name:(Printf.sprintf "c%d" i) in
        let win =
          Server.create_window server conn ~parent:root
            ~geom:(Geom.rect (i * 300) 0 200 200) ()
        in
        Server.select_input server conn win
          [ Event.Exposure_mask; Event.Structure_notify ];
        Server.select_input server conn root [ Event.Pointer_motion_mask ];
        (conn, win))
  in
  (server, clients)

let fate_records server =
  match Json.parse (Server.fate_json server ()) with
  | Ok json -> (
      match Option.bind (Json.member "fates" json) Json.to_list with
      | Some l ->
          List.map
            (fun r ->
              let int k = Option.value ~default:(-1) (Option.bind (Json.member k r) Json.to_int) in
              let str k = Option.value ~default:"" (Option.bind (Json.member k r) Json.to_string) in
              ( (int "seq", str "event", str "fate", str "conn", int "window", int "survivor"),
                int "t_in_ns" ))
            l
      | None -> Alcotest.fail "fate_json: no fates list")
  | Error msg -> Alcotest.failf "fate_json does not parse: %s" msg

(* Every (seq, ingress) pair a twin showed: one ingress time per seq, and
   ingress never decreasing as seqs rise. *)
let ingress_consistent pairs =
  let sorted = List.sort_uniq compare pairs in
  let rec ok = function
    | (s1, t1) :: ((s2, t2) :: _ as rest) -> s1 < s2 && t1 <= t2 && t1 > 0 && ok rest
    | [ (_, t) ] -> t > 0
    | [] -> true
  in
  ok sorted

let prop_read_batch_matches_spec =
  QCheck2.Test.make ~name:"read_batch reads what read_events_stamped reads"
    ~count:200
    ~print:(fun ops -> String.concat "; " (List.map show_twin_op ops))
    QCheck2.Gen.(list_size (int_range 1 120) twin_op_gen)
    (fun ops ->
      let fast, fast_clients = twin () and spec, spec_clients = twin () in
      let seen_fast = ref [] and seen_spec = ref [] in
      let both f =
        f fast fast_clients;
        f spec spec_clients
      in
      let live server clients c f =
        let conn, win = clients.(c) in
        if Server.conn_alive conn then f server conn win
      in
      let apply = function
        | Warp (x, y) ->
            both (fun server _ -> Server.warp_pointer server ~screen:0 (Geom.point x y));
            true
        | Configure (c, x) ->
            both (fun server clients ->
                live server clients c (fun server conn win ->
                    Server.configure_window server conn win
                      { Event.no_changes with cx = Some x }));
            true
        | Damage_at (c, r) ->
            both (fun server clients ->
                live server clients c (fun server _ win -> Server.damage_window server win r));
            true
        | Send_expose (c, damage) ->
            both (fun server clients ->
                let sender, _ = clients.((c + 1) mod twin_clients) in
                live server clients c (fun server _ win ->
                    if Server.conn_alive sender then
                      Server.send_event server sender ~dest:win
                        (Event.Expose { window = win; damage })));
            true
        | Stall (c, b) ->
            both (fun server clients ->
                live server clients c (fun _ conn _ -> Server.set_stalled conn b));
            true
        | Coalesce (c, b) ->
            both (fun server clients ->
                live server clients c (fun _ conn _ -> Server.set_coalesce conn b));
            true
        | Cap n ->
            both (fun server _ -> Server.set_queue_cap server n);
            true
        | Close c ->
            both (fun server clients ->
                live server clients c (fun server conn _ -> Server.disconnect server conn));
            true
        | Read (c, n) ->
            let events = Array.make n (Event.Focus_in { window = Swm_xlib.Xid.none }) in
            let stamps = Array.init n (fun _ -> { Server.seq = 0; ingress_ns = 0; slot = -1 }) in
            let k = Server.read_batch (fst fast_clients.(c)) events stamps in
            let got_fast =
              List.init k (fun i -> (events.(i), stamps.(i).seq, stamps.(i).ingress_ns))
            in
            let got_spec =
              List.map
                (fun (e, (st : Server.stamp)) -> (e, st.seq, st.ingress_ns))
                (Server.read_events_stamped (fst spec_clients.(c)) ~max:n)
            in
            let pairs = List.map (fun (_, seq, t) -> (seq, t)) in
            seen_fast := pairs got_fast @ !seen_fast;
            seen_spec := pairs got_spec @ !seen_spec;
            let untimed = List.map (fun (e, seq, _) -> (e, seq)) in
            untimed got_fast = untimed got_spec
      in
      let pending clients = Array.map (fun (conn, _) -> Server.pending conn) clients in
      List.for_all
        (fun op ->
          apply op
          && Server.ledger_counts fast = Server.ledger_counts spec
          && pending fast_clients = pending spec_clients)
        ops
      &&
      let fates_fast = fate_records fast and fates_spec = fate_records spec in
      List.map fst fates_fast = List.map fst fates_spec
      && Metrics.counter_value (Server.metrics fast) "events.delivered"
         = Metrics.counter_value (Server.metrics spec) "events.delivered"
      && ingress_consistent
           (!seen_fast @ List.map (fun ((seq, _, _, _, _, _), t) -> (seq, t)) fates_fast)
      && ingress_consistent
           (!seen_spec @ List.map (fun ((seq, _, _, _, _, _), t) -> (seq, t)) fates_spec))

(* -------- one clock read per batch, dispatches in place -------- *)

let fate_times server =
  match Json.parse (Server.fate_json server ()) with
  | Ok json ->
      List.map
        (fun r ->
          let int k = Option.value ~default:(-1) (Option.bind (Json.member k r) Json.to_int) in
          (int "seq", int "t_fate_ns"))
        (Option.value ~default:[] (Option.bind (Json.member "fates" json) Json.to_list))
  | Error msg -> Alcotest.failf "fate_json does not parse: %s" msg

let read_stamped conn n =
  let events = Array.make n (Event.Focus_in { window = Swm_xlib.Xid.none }) in
  let stamps = Array.init n (fun _ -> { Server.seq = 0; ingress_ns = 0; slot = -1 }) in
  let k = Server.read_batch conn events stamps in
  Array.sub stamps 0 k

(* Every fate one read_batch records carries the one clock reading the
   batch took, which read_ns returns; a read of an empty queue reads no
   clock.  Disarmed, a batch reads none and its stamps name no slot. *)
let test_batch_shares_one_fate_time () =
  let server, conn, _root = motion_setup () in
  Server.set_coalesce conn false;
  for i = 1 to 10 do
    Server.warp_pointer server ~screen:0 (Geom.point i i)
  done;
  let reads0 = Metrics.clock_reads () in
  let stamps = read_stamped conn 64 in
  check Alcotest.int "one clock read for the batch" 1 (Metrics.clock_reads () - reads0);
  check Alcotest.int "every motion read" 10 (Array.length stamps);
  let t = Server.read_ns conn in
  check Alcotest.bool "the reading is a time" true (t > 0);
  let times = fate_times server in
  Array.iter
    (fun (st : Server.stamp) ->
      check (Alcotest.option Alcotest.int) "fate time is the batch's" (Some t)
        (List.assoc_opt st.seq times);
      check Alcotest.bool "the stamp names a slot" true (st.slot >= 0))
    stamps;
  let reads0 = Metrics.clock_reads () in
  check Alcotest.int "an empty queue reads nothing" 0 (Array.length (read_stamped conn 64));
  check Alcotest.int "and no clock" 0 (Metrics.clock_reads () - reads0);
  check Alcotest.int "read_ns of an empty read" 0 (Server.read_ns conn);
  Server.set_ledger server false;
  Server.warp_pointer server ~screen:0 (Geom.point 50 50);
  let reads0 = Metrics.clock_reads () in
  let stamps = read_stamped conn 64 in
  check Alcotest.int "disarmed: no clock read" 0 (Metrics.clock_reads () - reads0);
  check Alcotest.bool "disarmed: no slot" true
    (Array.length stamps = 1 && stamps.(0).slot = -1)

(* A dispatch lands in its event's slot, and the dispatches of one entry
   (the rects of a Damage entry share its stamp) add up there, unless more
   than a window of fates has overwritten that slot since the read: then
   the slot's new fate is left alone and the dispatch is not in the
   view. *)
let test_overwritten_slot_left_alone () =
  let server, conn, _root = motion_setup () in
  let other = Server.connect server ~name:"other" in
  Server.select_input server other (Server.root server ~screen:0) [ Event.Pointer_motion_mask ];
  Server.set_coalesce conn false;
  Server.set_coalesce other false;
  Server.warp_pointer server ~screen:0 (Geom.point 1 1);
  ignore (Server.flush_batch other);
  let kept = (read_stamped conn 1).(0) in
  Server.ledger_dispatch conn kept ~t0:100 ~t1:150 ~requests:2 ~fns:[ "f.lower"; "f.raise" ];
  Server.ledger_dispatch conn kept ~t0:150 ~t1:170 ~requests:1 ~fns:[ "f.iconify" ];
  (match Server.dispatches conn with
  | [ d ] ->
      check Alcotest.int "the dispatch's seq" kept.seq d.d_seq;
      check Alcotest.int "its span, both parts" 70 (d.d_end_ns - d.d_start_ns);
      check Alcotest.int "its requests" 3 d.d_requests;
      check Alcotest.(list string) "its functions, in order"
        [ "f.raise"; "f.lower"; "f.iconify" ] d.d_functions
  | l -> Alcotest.failf "expected one dispatch, got %d" (List.length l));
  Server.warp_pointer server ~screen:0 (Geom.point 2 2);
  let late = (read_stamped conn 1).(0) in
  ignore (Server.flush_batch other);
  for batch = 0 to 5 do
    for i = 1 to 100 do
      Server.warp_pointer server ~screen:0 (Geom.point (3 + (batch * 100) + i) i)
    done;
    ignore (Server.flush_batch other);
    ignore (read_stamped conn 100)
  done;
  Server.ledger_dispatch conn late ~t0:200 ~t1:300 ~requests:1 ~fns:[ "f.raise" ];
  check Alcotest.(list int) "no view entry for the overwritten event" []
    (List.map (fun (d : Server.dispatch) -> d.d_seq) (Server.dispatches conn));
  check Alcotest.(list int) "nor for the slot's new owner" []
    (List.map (fun (d : Server.dispatch) -> d.d_seq) (Server.dispatches other))

let suite =
  [
    Alcotest.test_case "motion coalescing balances" `Quick
      test_motion_coalescing_balances;
    Alcotest.test_case "expose merge balances" `Quick test_expose_merge_balances;
    Alcotest.test_case "empty damage queues nothing" `Quick
      test_empty_damage_queues_nothing;
    Alcotest.test_case "flood shed balances" `Quick test_flood_shed_balances;
    Alcotest.test_case "governor skip reclassifies once" `Quick
      test_governor_skip_reclassifies;
    Alcotest.test_case "eviction flushes pending fates" `Quick
      test_eviction_flushes_pending;
    Alcotest.test_case "disarmed ledger still balances" `Quick
      test_disarmed_ledger_still_balances;
    Alcotest.test_case "queue residency observed when armed" `Quick
      test_queue_residency_observed_when_armed;
    Alcotest.test_case "fate json filters by conn and window" `Quick
      test_fate_json_filters;
    Alcotest.test_case "fate window keeps the newest 512" `Quick
      test_fate_window_wraps;
    Alcotest.test_case "a batch's fates share one clock read" `Quick
      test_batch_shares_one_fate_time;
    Alcotest.test_case "an overwritten slot is left alone" `Quick
      test_overwritten_slot_left_alone;
    QCheck_alcotest.to_alcotest prop_fate_accounting_balances;
    QCheck_alcotest.to_alcotest prop_fate_counts_deterministic;
    QCheck_alcotest.to_alcotest prop_read_batch_matches_spec;
  ]

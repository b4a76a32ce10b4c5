(* Replay suite: crash reports round-trip through {!Swm_xlib.Replay} —
   record a session, dump it, re-execute the journal against a fresh
   Server+WM pair, and the replayed state converges to the recorded
   snapshot.  On top of that: the ddmin minimizer shrinks a failing op
   stream to a strictly shorter one that still fails, the committed
   repro corpus under [repros/] stays green, and replaying the same
   report twice is byte-for-byte deterministic. *)

module Server = Swm_xlib.Server
module Recorder = Swm_xlib.Recorder
module Replay = Swm_xlib.Replay
module Fault = Swm_xlib.Fault
module Xid = Swm_xlib.Xid
module Wm = Swm_core.Wm
module Ctx = Swm_core.Ctx
module Templates = Swm_core.Templates
module Swmcmd = Swm_core.Swmcmd
module Workload = Swm_clients.Workload

let check = Alcotest.check

let resources =
  [ Templates.open_look; "swm*virtualDesktop: False\nswm*rootPanels:\n" ]

let client_side f =
  try f () with Server.Bad_window _ | Server.Bad_access _ -> ()

(* Record a session — WM with the flight recorder on, [clients] apps, a
   few storm rounds (optionally under a fault plan) — and return the
   crash-report text its recorder dumps at the end. *)
let record_session ?(clients = 4) ?(rounds = 2) ?(seed = 11) ?plan () =
  let server = Server.create () in
  let wm = Wm.start ~resources server in
  let recorder = Server.recorder server in
  Recorder.start recorder;
  let ctx = Wm.ctx wm in
  let apps = Workload.launch_n server clients in
  ignore (Wm.step wm);
  (match plan with
  | Some p -> ignore (Server.arm_faults server ~protect:[ ctx.Ctx.conn ] p)
  | None -> ());
  let sender = Server.connect server ~name:"cmd" in
  for round = 0 to rounds - 1 do
    let sub = (seed * 31) + round in
    client_side (fun () -> Workload.motion_storm server ~seed:sub ~steps:15 ());
    ignore (Wm.step wm);
    client_side (fun () ->
        Workload.configure_churn server ~seed:sub ~rounds:1 apps);
    ignore (Wm.step wm);
    client_side (fun () -> Workload.expose_storm server ~seed:sub ~rounds:1 apps);
    ignore (Wm.step wm);
    (* Iconify a rotating third through swmcmd, so the churn is session
       input (a journalled property write), not direct WM surgery. *)
    List.iteri
      (fun i (c : Ctx.client) ->
        let verb = if (i + round) mod 3 = 0 then "f.iconify" else "f.deiconify" in
        client_side (fun () ->
            Swmcmd.send server sender ~screen:0
              (Printf.sprintf "%s(#%d)" verb (Xid.to_int c.Ctx.cwin))))
      (Ctx.all_clients ctx);
    ignore (Wm.step wm)
  done;
  Recorder.dump_json recorder ~reason:"end of recorded session"
    ~metrics:(Server.metrics server) ~tracer:(Server.tracer server)

let parse_ok text =
  match Replay.parse_report text with
  | Ok report -> report
  | Error msg -> Alcotest.failf "parse_report: %s" msg

let test_recorded_session_converges () =
  let report = parse_ok (record_session ()) in
  check Alcotest.bool "journal is non-empty" true (List.length report.Replay.ops > 50);
  check Alcotest.bool "report has a snapshot" true (report.Replay.snap <> None);
  match Wm.replay report with
  | Replay.Converged { ops; steps } ->
      check Alcotest.int "every op replayed" (List.length report.Replay.ops) ops;
      check Alcotest.bool "the WM stepped" true (steps > 0)
  | outcome ->
      Alcotest.failf "expected convergence: %s" (Replay.outcome_to_string outcome)

let test_chaos_session_converges () =
  (* Same, but with a fault storm injecting destroys/kills/stalls: fault
     effects are journalled as session inputs, so the replay re-enacts
     the same hostile schedule. *)
  let report =
    parse_ok (record_session ~clients:5 ~rounds:3 ~seed:23 ~plan:(Fault.storm ~seed:23 ()) ())
  in
  match Wm.replay report with
  | Replay.Converged _ -> ()
  | outcome ->
      Alcotest.failf "expected convergence under faults: %s"
        (Replay.outcome_to_string outcome)

let test_f_replay_verb () =
  (* The same check over the command channel: f.query(replay,FILE) re-executes
     the report in-process and replies with the outcome on SWM_RESULT. *)
  let file = Filename.temp_file "swm_replay" ".json" in
  let oc = open_out file in
  output_string oc (record_session ~seed:53 ());
  close_out oc;
  let server = Server.create () in
  let wm = Wm.start ~resources server in
  let sender = Server.connect server ~name:"cmd" in
  Swmcmd.send server sender ~screen:0 (Printf.sprintf "f.query(replay,%s)" file);
  ignore (Wm.step wm);
  Sys.remove file;
  match Swmcmd.read_result server ~screen:0 with
  | None -> Alcotest.fail "f.query(replay) left no SWM_RESULT reply"
  | Some reply ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
        at 0
      in
      check Alcotest.bool
        (Printf.sprintf "reply reports convergence: %s" reply)
        true
        (contains reply "\"outcome\":\"converged\"")

let test_replay_twice_is_deterministic () =
  let report = parse_ok (record_session ~seed:31 ()) in
  let final_snapshot () =
    let last = ref "" in
    let make server =
      let h = Wm.replay_harness report server in
      {
        Replay.h_step = h.Replay.h_step;
        h_snapshot =
          (fun () ->
            let s = h.Replay.h_snapshot () in
            last := s;
            s);
      }
    in
    (match Replay.run report ~make with
    | Replay.Converged _ -> ()
    | outcome ->
        Alcotest.failf "replay failed: %s" (Replay.outcome_to_string outcome));
    !last
  in
  check Alcotest.string "byte-identical final snapshots" (final_snapshot ())
    (final_snapshot ())

(* qcheck: any seeded recording replays to convergence, twice identically. *)
let prop_random_streams_replay_deterministically =
  QCheck2.Test.make ~name:"recorded random event streams replay byte-identically"
    ~count:10
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let report = parse_ok (record_session ~clients:3 ~rounds:1 ~seed ()) in
      let snap_of run =
        ignore run;
        let last = ref "" in
        let make server =
          let h = Wm.replay_harness report server in
          {
            Replay.h_step = h.Replay.h_step;
            h_snapshot =
              (fun () ->
                let s = h.Replay.h_snapshot () in
                last := s;
                s);
          }
        in
        match Replay.run report ~make with
        | Replay.Converged _ -> !last
        | outcome -> Alcotest.failf "seed %d: %s" seed (Replay.outcome_to_string outcome)
      in
      String.equal (snap_of 0) (snap_of 1))

let test_minimizer_shrinks_injected_failure () =
  (* Poison a healthy journal with an op that must crash any replay
     (destroying a root raises Invalid_argument, which replay never
     absorbs), then check ddmin returns a strictly shorter op list that
     still fails. *)
  let report = parse_ok (record_session ~clients:3 ~rounds:1 ~seed:47 ()) in
  let root = Xid.to_int (Server.root (Server.create ()) ~screen:0) in
  let poison = Printf.sprintf "destroy %d" root in
  let rec inject i = function
    | [] -> [ poison ]
    | op :: rest -> if i = 0 then poison :: op :: rest else op :: inject (i - 1) rest
  in
  let ops = inject (List.length report.Replay.ops / 2) report.Replay.ops in
  (* Standard ddmin practice: the oracle matches the *failure signature*,
     not just "any crash" — chopping a create out of the stream makes later
     frames crash too (unknown id), and without the signature check the
     minimizer happily converges on one of those instead. *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  let fails ops =
    let probe =
      { report with Replay.ops; snap = None; expect = Replay.No_crash }
    in
    match Wm.replay probe with
    | Replay.Crashed { error; _ } -> contains error "root window"
    | _ -> false
  in
  check Alcotest.bool "poisoned stream fails" true (fails ops);
  let minimized, tests = Replay.minimize ~ops ~fails in
  check Alcotest.bool "minimized is strictly shorter" true
    (List.length minimized < List.length ops);
  check Alcotest.bool "minimized still fails" true (fails minimized);
  check Alcotest.bool "oracle ran" true (tests > 1);
  (* ddmin should isolate the single poisoned op from this stream. *)
  check Alcotest.(list string) "minimal repro is the poison op" [ poison ]
    minimized

let test_minimizer_keeps_passing_stream () =
  let ops = [ "step"; "step" ] in
  let minimized, tests = Replay.minimize ~ops ~fails:(fun _ -> false) in
  check Alcotest.(list string) "non-failing input unchanged" ops minimized;
  check Alcotest.int "single oracle call" 1 tests

(* -------- parse edge cases -------- *)

let test_parse_truncated_ring () =
  let text =
    {|{"reason":"r","journal":{"capacity":4,"recorded":9,"dropped":5,"snap":null,"ops":["step"]}}|}
  in
  let report = parse_ok text in
  check Alcotest.int "dropped parsed" 5 report.Replay.dropped;
  match Wm.replay report with
  | Replay.Truncated { dropped } -> check Alcotest.int "dropped" 5 dropped
  | outcome ->
      Alcotest.failf "expected Truncated: %s" (Replay.outcome_to_string outcome)

let test_parse_missing_snapshot () =
  let text =
    {|{"reason":"r","journal":{"capacity":8,"recorded":1,"dropped":0,"snap":null,"ops":["step"]}}|}
  in
  let report = parse_ok text in
  check Alcotest.bool "no snapshot" true (report.Replay.snap = None);
  match Wm.replay report with
  | Replay.No_snapshot _ -> ()
  | outcome ->
      Alcotest.failf "expected No_snapshot: %s" (Replay.outcome_to_string outcome)

let test_parse_rejects_garbage () =
  (match Replay.parse_report "{never closed" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed JSON accepted");
  (match Replay.parse_report {|{"journal":{}}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "journal without ops accepted");
  match Replay.parse_report {|{"reason":"no journal at all"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "report without journal or ops accepted"

let test_repro_roundtrip () =
  let report = parse_ok (record_session ~clients:2 ~rounds:1 ~seed:7 ()) in
  let compact = Replay.repro_json report in
  let back = parse_ok compact in
  check Alcotest.(list string) "ops survive the round-trip" report.Replay.ops
    back.Replay.ops;
  check Alcotest.bool "snapshot survives the round-trip" true
    (back.Replay.snap <> None);
  match Wm.replay back with
  | Replay.Converged _ -> ()
  | outcome ->
      Alcotest.failf "repro file replay: %s" (Replay.outcome_to_string outcome)

(* -------- toolkit requests in the journal -------- *)

(* A non-WM connection realizes a decoration-like tree on its own toolkit,
   retitles it and unrealizes it with the recorder armed.  At each point,
   the journal so far replays into a fresh server to the live server's
   window tree: parents, geometry, stacking, mapped state, shape and the
   owner's masks.  The toolkit's creates carry their masks and its panels
   are mapped with MapSubwindows, neither of which the wire codec
   carries, so the journal must hold what replays to the same state. *)
let test_toolkit_journal_replays () =
  let module Wobj = Swm_oi.Wobj in
  let module Geom = Swm_xlib.Geom in
  let module Json = Swm_xlib.Json in
  let server = Server.create () in
  let recorder = Server.recorder server in
  Recorder.start recorder;
  let conn = Server.connect server ~name:"toolkit" in
  let tk = Wobj.create_toolkit ~server ~conn ~screen:0 ~query:(fun ~names:_ ~classes:_ -> None) in
  let obj kind name = Wobj.make tk kind ~name in
  let add parent child spec = Wobj.add_child parent child ~position:(Geom.parse_exn spec) in
  let deco = obj Wobj.Panel "deco" and inner = obj Wobj.Panel "inner" in
  let title = obj Wobj.Button "title" in
  add deco (obj Wobj.Button "menu") "+0+0";
  add deco title "+C+0";
  add deco (obj Wobj.Button "pin") "-0+0";
  add deco inner "+0+1";
  add inner (obj Wobj.Button "left") "+0+0";
  add inner (obj Wobj.Text "right") "+1+0";
  Wobj.set_attr inner "shape" "True";
  (* The trees under the first screen's root, without window ids. *)
  let snapshot server =
    let rec tree id =
      let g = Server.geometry server id in
      Json.Obj
        [
          ("geom", Json.List (List.map (fun v -> Json.Num (float_of_int v)) [ g.x; g.y; g.w; g.h ]));
          ("mapped", Json.Bool (Server.is_mapped server id));
          ("shaped", Json.Bool (Server.is_shaped server id));
          ( "masks",
            Json.List
              (List.map
                 (fun m -> Json.Str (Format.asprintf "%a" Swm_xlib.Event.pp_mask m))
                 (Server.selected_masks server (Server.owner_of server id) id)) );
          ("children", Json.List (List.map tree (Server.children_of server id)));
        ]
    in
    Json.render
      (Json.List (List.map tree (Server.children_of server (Server.root server ~screen:0))))
  in
  let root = Server.root server ~screen:0 in
  let points = ref [] in
  let point what =
    points := (what, Recorder.journal_ops recorder, snapshot server) :: !points
  in
  Wobj.realize deco ~parent_window:root ~at:(Geom.point 20 30);
  check Alcotest.int "the tree's windows" 8 (Server.window_count server);
  point "realized";
  Wobj.set_label title "a much longer title";
  point "retitled";
  Wobj.unrealize deco;
  point "unrealized";
  List.iter
    (fun (what, ops, snap) ->
      let report = Replay.make_report ~snap ops in
      let make server' =
        { Replay.h_step = ignore; h_snapshot = (fun () -> snapshot server') }
      in
      match Replay.run report ~make with
      | Replay.Converged _ -> ()
      | outcome -> Alcotest.failf "%s: %s" what (Replay.outcome_to_string outcome))
    (List.rev !points)

(* -------- the journal taps -------- *)

(* One request of each kind that journals as a text op rather than a
   frame, on a bare server: "client#1" owns windows 2 ([dest]) and 3
   ([doomed]), "victim#2" owns window 4.  [exempt] marks the client's
   connection journal-exempt; [suspended] issues the requests under
   {!Server.with_journal_suspended}.  Returns what the journal holds. *)
let journal_taps ?(exempt = false) ?(suspended = false) ~armed () =
  let module Geom = Swm_xlib.Geom in
  let module Prop = Swm_xlib.Prop in
  let module Event = Swm_xlib.Event in
  let module Keysym = Swm_xlib.Keysym in
  let server = Server.create () in
  let conn = Server.connect server ~name:"client" in
  let victim = Server.connect server ~name:"victim" in
  let root = Server.root server ~screen:0 in
  let window c = Server.create_window server c ~parent:root ~geom:(Geom.rect 10 10 100 80) () in
  let dest = window conn and doomed = window conn and _ = window victim in
  let recorder = Server.recorder server in
  if armed then Recorder.start recorder;
  Server.set_journal_exempt conn exempt;
  let requests () =
    Server.destroy_window server doomed;
    Server.disconnect server victim;
    Server.change_property server conn dest ~name:"WM_COUNT" (Prop.Cardinal 7);
    Server.damage_window server dest (Geom.rect 1 2 30 40);
    Server.send_event server conn ~dest
      (Event.Client_message { window = dest; name = "PING"; data = "x" });
    Server.warp_pointer server ~screen:0 (Geom.point 15 25);
    Server.press_button server ~mods:(Keysym.mods ~shift:true ()) 1;
    Server.release_button server 1;
    Server.press_key server ~mods:(Keysym.mods ~control:true ~meta:true ()) "q";
    Server.shape_clear server conn dest
  in
  if suspended then Server.with_journal_suspended server requests else requests ();
  Recorder.journal_ops recorder

let test_journal_taps () =
  let ops = Alcotest.(list string) in
  check ops "armed: one op per request, in order"
    [
      "destroy 3";
      "kill victim#2";
      "prop client#1 2 574d5f434f554e54 4337";
      "damage 2 1 2 30 40";
      "send client#1 2 100200000050494e470000000000000000007800000000000000000000000000";
      "warp 0 15 25";
      "press 1 1";
      "release 1 0";
      "key 71 6";
      "shapeclear 2";
    ]
    (journal_taps ~armed:true ());
  check ops "armed, the client exempt: its property, send and shape ops go"
    [
      "destroy 3";
      "kill victim#2";
      "damage 2 1 2 30 40";
      "warp 0 15 25";
      "press 1 1";
      "release 1 0";
      "key 71 6";
    ]
    (journal_taps ~exempt:true ~armed:true ());
  check ops "armed, suspended: nothing" [] (journal_taps ~suspended:true ~armed:true ());
  check ops "off: nothing" [] (journal_taps ~armed:false ())

(* -------- the committed corpus -------- *)

(* Tests run from _build/default/test (where the dune glob copies the
   corpus); "test/repros" covers a bare `dune exec` from the repo root. *)
let repros_dir =
  if Sys.file_exists "repros" && Sys.is_directory "repros" then "repros"
  else "test/repros"

let test_corpus_replays () =
  let files =
    Sys.readdir repros_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
  in
  check Alcotest.bool "corpus is not empty" true (files <> []);
  List.iter
    (fun file ->
      let path = Filename.concat repros_dir file in
      let text = In_channel.with_open_text path In_channel.input_all in
      match Replay.parse_report text with
      | Error msg -> Alcotest.failf "%s: %s" file msg
      | Ok report -> (
          match Wm.replay report with
          | outcome when Replay.ok outcome -> ()
          | outcome ->
              Alcotest.failf "%s: %s" file (Replay.outcome_to_string outcome)))
    files

let suite =
  [
    Alcotest.test_case "recorded session replays to convergence" `Quick
      test_recorded_session_converges;
    Alcotest.test_case "chaos session replays to convergence" `Quick
      test_chaos_session_converges;
    Alcotest.test_case "f.replay replies with the outcome over swmcmd" `Quick
      test_f_replay_verb;
    Alcotest.test_case "replaying twice is byte-identical" `Quick
      test_replay_twice_is_deterministic;
    Alcotest.test_case "ddmin shrinks an injected failure" `Quick
      test_minimizer_shrinks_injected_failure;
    Alcotest.test_case "ddmin leaves passing streams alone" `Quick
      test_minimizer_keeps_passing_stream;
    Alcotest.test_case "truncated ring refuses to assert convergence" `Quick
      test_parse_truncated_ring;
    Alcotest.test_case "missing snapshot reports No_snapshot" `Quick
      test_parse_missing_snapshot;
    Alcotest.test_case "malformed reports are rejected" `Quick
      test_parse_rejects_garbage;
    Alcotest.test_case "repro files round-trip" `Quick test_repro_roundtrip;
    Alcotest.test_case "committed repro corpus replays clean" `Quick
      test_corpus_replays;
    Alcotest.test_case "toolkit requests replay to the same tree" `Quick
      test_toolkit_journal_replays;
    Alcotest.test_case "text ops journal only while recorded" `Quick test_journal_taps;
    QCheck_alcotest.to_alcotest prop_random_streams_replay_deterministically;
  ]

(* Chaos suite: the workload storms of test_fuzz run again, but under
   seeded fault plans ({!Swm_xlib.Fault}) that destroy client windows
   between requests, kill or stall connections, corrupt wire frames and
   garble property bytes.  Three properties must hold for every plan:

   - the WM never crashes (no exception escapes [Wm.step]);
   - the client tables stay consistent (every managed client's window
     still exists once the queue is drained);
   - after the WM is torn down and a fresh instance started, every
     surviving viable client is re-adopted — 100%, not "most".

   Every run is replayable from its integer seed. *)

module Server = Swm_xlib.Server
module Fault = Swm_xlib.Fault
module Json = Swm_xlib.Json
module Metrics = Swm_xlib.Metrics
module Recorder = Swm_xlib.Recorder
module Replay = Swm_xlib.Replay
module Xid = Swm_xlib.Xid
module Wm = Swm_core.Wm
module Ctx = Swm_core.Ctx
module Swmcmd = Swm_core.Swmcmd
module Templates = Swm_core.Templates
module Workload = Swm_clients.Workload

let check = Alcotest.check

let resources =
  [ Templates.open_look; "swm*virtualDesktop: False\nswm*rootPanels:\n" ]

(* Client-side stimulus races the injector on purpose: a storm step may
   address a window the fault plan just destroyed, or speak through a
   killed connection.  That is the client's problem, not the WM's — absorb
   it here so only exceptions out of [Wm.step] count as failures. *)
let client_side f =
  try f () with Server.Bad_window _ | Server.Bad_access _ -> ()

(* With SWM_FLIGHT_DIR set (the CI replay-corpus job), every storm runs
   with the flight recorder armed and dumps its crash reports there. *)
let flight_dir =
  match Sys.getenv_opt "SWM_FLIGHT_DIR" with
  | Some dir when dir <> "" -> Some dir
  | Some _ | None -> None

(* A crash report must stand alone: it parses and carries its reason, the
   recorded tail, the metrics registry (counters included) and the slow
   log.  Returns the fault entries of the recorded tail. *)
let validate_dump path =
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) path in
  match Json.parse (In_channel.with_open_text path In_channel.input_all) with
  | Error msg -> fail "does not parse: %s" msg
  | Ok dump -> (
      List.iter
        (fun key -> if Json.member key dump = None then fail "no %s" key)
        [ "reason"; "recorder"; "metrics"; "slowlog" ];
      (match Option.bind (Json.member "metrics" dump) (Json.member "counters") with
      | Some (Json.Obj (_ :: _)) -> ()
      | _ -> fail "empty metrics registry");
      match
        Option.bind (Option.bind (Json.member "recorder" dump) (Json.member "entries"))
          Json.to_list
      with
      | None -> fail "no recorded entries"
      | Some entries ->
          List.length
            (List.filter
               (fun e -> Option.bind (Json.member "kind" e) Json.to_string = Some "fault")
               entries))

(* A crashed seed should arrive pre-minimized: the recorder dumped a crash
   report on the way out, so shrink its journal with ddmin to the shortest
   op stream whose replay still crashes, and leave the compact repro next
   to the dump (the CI replay-corpus job uploads both; a green repro is a
   candidate for test/repros/ once the bug is fixed). *)
let minimize_dump ~seed =
  match flight_dir with
  | Some dir -> (
      let dump =
        Filename.concat dir (Printf.sprintf "crash-seed-%d.json" seed)
      in
      match
        if Sys.file_exists dump then
          Replay.parse_report (In_channel.with_open_text dump In_channel.input_all)
        else Error "no dump"
      with
      | Error _ -> ()
      | Ok report ->
          let fails ops =
            let probe =
              { report with Replay.ops; snap = None; expect = Replay.No_crash }
            in
            match Wm.replay probe with Replay.Crashed _ -> true | _ -> false
          in
          if fails report.Replay.ops then begin
            let ops, _ = Replay.minimize ~ops:report.Replay.ops ~fails in
            let repro =
              { report with Replay.ops; snap = None; expect = Replay.No_crash }
            in
            let path =
              Filename.concat dir (Printf.sprintf "repro-seed-%d.json" seed)
            in
            let oc = open_out path in
            output_string oc (Replay.repro_json repro);
            close_out oc
          end)
  | None -> ()

let wm_step ~seed wm =
  try ignore (Wm.step wm)
  with e ->
    minimize_dump ~seed;
    Alcotest.failf "seed %d: WM crashed: %s" seed (Printexc.to_string e)

(* The clients a fresh WM is expected to adopt: mapped, not
   override-redirect, owner connection alive and not a WM. *)
let adoptable server =
  let root = Server.root server ~screen:0 in
  List.filter
    (fun w ->
      Server.window_exists server w
      && Server.is_mapped server w
      && (not (Server.override_redirect server w))
      && match Server.owner_of server w with
         | owner -> Server.conn_name owner <> "swm"
         | exception Server.Bad_access _ -> false)
    (Server.children_of server root)

(* One full chaos cycle: populate, storm under an armed plan, check
   invariants, restart the WM, check adoption.  Returns the faults
   injected, the survivors adopted and, when the storm left a crash
   report, the fault entries it recorded. *)
let run_chaos ~seed ~clients ~rounds plan =
  let server = Server.create () in
  let wm = Wm.start ~resources server in
  (* With a flight directory, each absorbed X error dumps a per-seed crash
     report there, which the job replays and uploads.  Without one (the
     default developer run), the recorder stays off — chaos results must
     not depend on it either way. *)
  let dump =
    Option.map
      (fun dir -> Filename.concat dir (Printf.sprintf "crash-seed-%d.json" seed))
      flight_dir
  in
  Option.iter
    (fun path ->
      (* A report left by an earlier run is not this one's. *)
      if Sys.file_exists path then Sys.remove path;
      let recorder = Server.recorder server in
      Recorder.start recorder;
      Recorder.arm_dump recorder ~path)
    dump;
  let ctx = Wm.ctx wm in
  let apps = Workload.launch_n server clients in
  wm_step ~seed wm;
  (* The iconify churn below travels through swmcmd, so it is session
     input (a journalled root-property write the replay re-injects), not
     direct WM surgery a replayed WM would never repeat.  The command
     channel is protected: chaos targets the WM, not the test driver. *)
  let sender = Server.connect server ~name:"chaos-cmd" in
  let fault = Server.arm_faults server ~protect:[ ctx.Ctx.conn; sender ] plan in
  for round = 0 to rounds - 1 do
    let sub = (seed * 31) + round in
    client_side (fun () -> Workload.motion_storm server ~seed:sub ~steps:25 ());
    wm_step ~seed wm;
    client_side (fun () -> Workload.configure_churn server ~seed:sub ~rounds:2 apps);
    wm_step ~seed wm;
    client_side (fun () -> Workload.expose_storm server ~seed:sub ~rounds:1 apps);
    wm_step ~seed wm;
    (* Iconify a rotating third of the population, deiconify the rest. *)
    List.iteri
      (fun i (c : Ctx.client) ->
        let verb = if (i + round) mod 3 = 0 then "f.iconify" else "f.deiconify" in
        client_side (fun () ->
            Swmcmd.send server sender ~screen:0
              (Printf.sprintf "%s(#%d)" verb (Xid.to_int c.Ctx.cwin))))
      (Ctx.all_clients ctx);
    wm_step ~seed wm
  done;
  (* Invariant: once the queue is drained, no managed client is a corpse. *)
  List.iter
    (fun (c : Ctx.client) ->
      if not (Server.window_exists server c.Ctx.cwin) then
        Alcotest.failf "seed %d: managed client %d has no window" seed
          (Xid.to_int c.Ctx.cwin))
    (Ctx.all_clients ctx);
  (* Recording stops here: a journal spanning a WM teardown + restart is
     not replayable by the single fresh WM the replay harness starts, so
     dumps (and the repro corpus built from them) stay storm-scoped. *)
  Option.iter (fun _ -> Recorder.stop (Server.recorder server)) dump;
  (* Restart: tear the WM down (frames die, save-set clients return to the
     root) and verify a fresh instance re-adopts every survivor.  A hot
     plan can wipe the whole herd, which would make the adoption check
     vacuous — so a few late arrivals always join on the wreckage first. *)
  Server.disarm_faults server;
  let _late = Workload.launch_n server 3 in
  wm_step ~seed wm;
  Wm.shutdown wm;
  let survivors = adoptable server in
  let wm2 =
    try Wm.start ~resources server
    with e ->
      Alcotest.failf "seed %d: restarted WM crashed: %s" seed
        (Printexc.to_string e)
  in
  wm_step ~seed wm2;
  List.iter
    (fun w ->
      if Wm.find_client wm2 w = None then
        Alcotest.failf "seed %d: survivor %d not re-adopted" seed (Xid.to_int w))
    survivors;
  ( Fault.injected fault,
    List.length survivors,
    match dump with
    | Some path when Sys.file_exists path -> Some (validate_dump path)
    | Some _ | None -> None )

let test_chaos_200_seeds () =
  let total = ref 0 and survivors = ref 0 and dumps = ref 0 and faults = ref 0 in
  for seed = 1 to 200 do
    let injected, adopted, dump_faults =
      run_chaos ~seed ~clients:6 ~rounds:3 (Fault.storm ~seed ())
    in
    total := !total + injected;
    survivors := !survivors + adopted;
    Option.iter
      (fun n ->
        incr dumps;
        faults := !faults + n)
      dump_faults
  done;
  (* The suite is only meaningful if the plans actually fired AND the
     adoption check actually had clients to re-adopt. *)
  check Alcotest.bool "faults were injected" true (!total > 1000);
  check Alcotest.bool "adoption checks were not vacuous" true (!survivors > 200);
  (* With the recorder armed, the storms leave crash reports, and the
     injected faults show in their recorded tails. *)
  if flight_dir <> None then begin
    check Alcotest.bool "crash reports written" true (!dumps > 0);
    check Alcotest.bool "faults recorded in the crash reports" true (!faults > 0)
  end

let test_chaos_quiet_plan_is_inert () =
  (* The harness itself must not perturb anything: a quiet plan injects
     zero faults, and with no faults every client survives to adoption. *)
  let injected, survivors, _ = run_chaos ~seed:42 ~clients:6 ~rounds:3 Fault.quiet in
  check Alcotest.int "no faults under quiet plan" 0 injected;
  check Alcotest.bool "full population survives" true (survivors >= 6)

let test_chaos_deterministic () =
  (* Same seed, same plan: the injector fires the same faults, class by
     class — replayability is what makes chaos failures debuggable. *)
  let counts seed =
    let server = Server.create () in
    let wm = Wm.start ~resources server in
    let ctx = Wm.ctx wm in
    let apps = Workload.launch_n server 6 in
    ignore (Wm.step wm);
    let fault =
      Server.arm_faults server ~protect:[ ctx.Ctx.conn ] (Fault.storm ~seed ())
    in
    client_side (fun () -> Workload.motion_storm server ~seed ~steps:50 ());
    client_side (fun () -> Workload.configure_churn server ~seed ~rounds:3 apps);
    ignore (Wm.step wm);
    List.map (fun a -> Fault.count fault a) Fault.all_actions
  in
  check
    Alcotest.(list int)
    "identical fault schedule" (counts 1234) (counts 1234)

let test_metrics_account_for_faults () =
  let server = Server.create () in
  let wm = Wm.start ~resources server in
  let ctx = Wm.ctx wm in
  let apps = Workload.launch_n server 8 in
  ignore (Wm.step wm);
  let heavy =
    {
      (Fault.storm ~seed:7 ()) with
      Fault.p_destroy_window = 0.2;
      p_garble_property = 0.2;
      max_faults = 0;
    }
  in
  let fault = Server.arm_faults server ~protect:[ ctx.Ctx.conn ] heavy in
  for round = 0 to 2 do
    client_side (fun () -> Workload.configure_churn server ~seed:round ~rounds:2 apps);
    client_side (fun () -> Workload.expose_storm server ~seed:round ~rounds:1 apps);
    wm_step ~seed:7 wm
  done;
  let m = Server.metrics server in
  check Alcotest.int "faults.injected matches the armed plan's count"
    (Fault.injected fault)
    (Metrics.counter_value m "faults.injected");
  check Alcotest.bool "destroys fired" true
    (Metrics.counter_value m "faults.destroy_window" > 0)

(* A qcheck pass over random plans: probabilities drawn freely, not just
   the storm defaults. *)
let plan_gen =
  QCheck2.Gen.(
    map
      (fun (seed, (a, b), (c, d)) ->
        {
          Fault.seed;
          p_destroy_window = float_of_int a /. 400.;
          p_kill_connection = float_of_int b /. 4000.;
          p_stall_connection = float_of_int b /. 2000.;
          p_truncate_frame = float_of_int c /. 400.;
          p_corrupt_frame = float_of_int d /. 400.;
          p_garble_property = float_of_int d /. 400.;
          p_flood = float_of_int c /. 800.;
          flood_burst = 64;
          max_faults = 48;
        })
      (triple (int_range 1 1_000_000)
         (pair (int_range 0 40) (int_range 0 40))
         (pair (int_range 0 40) (int_range 0 40))))

let prop_no_crash_under_random_plans =
  QCheck2.Test.make ~name:"WM survives random fault plans" ~count:60 plan_gen
    (fun plan ->
      let _injected, _survivors, _dump_faults =
        run_chaos ~seed:plan.Fault.seed ~clients:5 ~rounds:2 plan
      in
      true)

(* The overload storm: a seeded flood plan hammers client queues while the
   usual stimulus runs.  Backpressure must bound every queue, no
   state-bearing event may ever be shed, the WM must survive, and after a
   restart every surviving client is re-adopted — the quarantine of the
   flooders must not cost anyone else their session. *)
let test_flood_storm_overload () =
  let seed = 99 in
  let cap = 128 in
  let server = Server.create () in
  Server.set_queue_cap server cap;
  let wm = Wm.start ~resources server in
  let ctx = Wm.ctx wm in
  let apps = Workload.launch_n server 8 in
  wm_step ~seed wm;
  let fault =
    Server.arm_faults server ~protect:[ ctx.Ctx.conn ]
      (Fault.flood ~seed ~burst:4096 ())
  in
  for round = 0 to 5 do
    let sub = (seed * 31) + round in
    client_side (fun () -> Workload.motion_storm server ~seed:sub ~steps:25 ());
    wm_step ~seed wm;
    client_side (fun () -> Workload.expose_storm server ~seed:sub ~rounds:1 apps);
    wm_step ~seed wm;
    client_side (fun () ->
        Workload.configure_churn server ~seed:sub ~rounds:2 apps);
    wm_step ~seed wm
  done;
  let m = Server.metrics server in
  check Alcotest.bool "floods actually fired" true
    (Fault.count fault Fault.Flood_events > 0);
  check Alcotest.bool "backpressure shed events" true
    (Metrics.counter_value m "events.shed" > 0);
  check Alcotest.int "zero state-bearing events shed" 0
    (Metrics.counter_value m "events.shed.state_bearing");
  check Alcotest.bool "queue depth stayed bounded" true
    (Metrics.gauge_value m "queue.depth"
    <= cap + Metrics.counter_value m "queue.cap_overruns");
  (* The lifecycle ledger must account for every event even under the
     storm: flood, shed, kill-connection eviction and coalescing all leave
     exactly one fate (or a pending entry) per enqueue. *)
  let lc = Server.ledger_counts server in
  check Alcotest.int "fate accounting balances under the flood storm" 0
    lc.Server.lc_balance;
  check Alcotest.bool "the storm exercised the lossy fates" true
    (lc.lc_shed + lc.lc_dropped + lc.lc_evicted > 0);
  Server.disarm_faults server;
  let _late = Workload.launch_n server 3 in
  wm_step ~seed wm;
  Wm.shutdown wm;
  let survivors = adoptable server in
  let wm2 = Wm.start ~resources server in
  wm_step ~seed wm2;
  List.iter
    (fun w ->
      if Wm.find_client wm2 w = None then
        Alcotest.failf "survivor %d not re-adopted after the storm"
          (Xid.to_int w))
    survivors;
  check Alcotest.bool "adoption check was not vacuous" true
    (List.length survivors >= 3)

let suite =
  [
    Alcotest.test_case "200 seeded fault plans, zero crashes" `Quick
      test_chaos_200_seeds;
    Alcotest.test_case "quiet plan is inert" `Quick test_chaos_quiet_plan_is_inert;
    Alcotest.test_case "fault schedule is deterministic" `Quick
      test_chaos_deterministic;
    Alcotest.test_case "metrics account for faults" `Quick
      test_metrics_account_for_faults;
    Alcotest.test_case "flood storm: bounded queues, full re-adoption" `Quick
      test_flood_storm_overload;
    QCheck_alcotest.to_alcotest prop_no_crash_under_random_plans;
  ]

(* swmcmd: demonstrate the out-of-process command protocol (paper §4.3).

   Since the simulated server lives in one process, this CLI shows the
   protocol round-trip: a client connection writes SWM_COMMAND on the root,
   the WM's event loop picks it up and executes it.  Commands are taken
   from argv (joined), e.g.:

     swmcmd_cli "f.iconify(XTerm)"

   Introspection flags run the channel in both directions — the command
   goes in over SWM_COMMAND and the reply comes back on SWM_RESULT:

     swmcmd_cli --metrics            print the WM's metrics registry (JSON)
     swmcmd_cli --metrics --table    the same, as a human-readable table
     swmcmd_cli --metrics --prometheus   Prometheus text exposition
     swmcmd_cli --slowlog            print the slow-op log (JSON)
     swmcmd_cli --health             one-line liveness summary (f.health)
     swmcmd_cli --top [FRAMES]       refreshing terminal table of counter
                                     rates from f.stats while a scripted
                                     workload runs (default 6 frames)
     swmcmd_cli --fate [CONN|WIN]    recent event fates from the lifecycle
                                     ledger (f.fate JSON), optionally
                                     filtered to a connection or window
     swmcmd_cli --waterfall FILE     run the scripted session and write the
                                     recent-dispatch waterfall (ingress ->
                                     queue -> dispatch -> requests) to FILE
     swmcmd_cli --flightdump FILE    write a flight-recorder report to FILE
     swmcmd_cli --replay FILE        f.replay(FILE): re-execute a crash
                                     report or repro file and print the
                                     convergence outcome (JSON)
     swmcmd_cli --trace FILE         trace a scripted session (pan storm +
                                     iconify burst) and write Chrome
                                     trace-event JSON to FILE
     swmcmd_cli --profile            profile the scripted session and print
                                     the span-tree profile (f.profile JSON:
                                     self/total time + allocation per frame)
     swmcmd_cli --flame FILE         profile the scripted session and write
                                     a collapsed-stack flamegraph to FILE
                                     (feed to flamegraph.pl / speedscope)
     swmcmd_cli --chaos SEED         run a workload storm under the seeded
                                     fault plan and report what the WM
                                     absorbed (replayable per seed) *)

module Server = Swm_xlib.Server
module Geom = Swm_xlib.Geom
module Prop = Swm_xlib.Prop
module Wire = Swm_xlib.Wire
module Wire_conn = Swm_xlib.Wire_conn
module Tracing = Swm_xlib.Tracing
module Json = Swm_xlib.Json
module Recorder = Swm_xlib.Recorder
module Wm = Swm_core.Wm
module Ctx = Swm_core.Ctx
module Swmcmd = Swm_core.Swmcmd
module Templates = Swm_core.Templates
module Stock = Swm_clients.Stock

type mode =
  | Command of string
  | Metrics of string option  (* None = JSON; Some "table"/"prometheus" *)
  | Slowlog
  | Health
  | Top of int  (* frames to render *)
  | Fate of string option
  | Waterfall of string
  | Flightdump of string
  | Replay of string
  | Trace of string
  | Profile
  | Flame of string
  | Chaos of int

let usage () =
  prerr_endline
    "usage: swmcmd_cli [COMMAND... | --metrics [--table | --prometheus] | \
     --slowlog | --health | --top [FRAMES] | --fate [CONN|WIN] | \
     --waterfall FILE | --flightdump FILE | \
     --replay FILE | --trace FILE | --profile | --flame FILE | \
     --chaos SEED]";
  exit 2

let parse_args () =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> Command "f.iconify(XTerm)"
  | [ "--metrics" ] -> Metrics None
  | [ "--metrics"; "--table" ] | [ "--table"; "--metrics" ] ->
      Metrics (Some "table")
  | [ "--metrics"; "--prometheus" ] | [ "--prometheus"; "--metrics" ] ->
      Metrics (Some "prometheus")
  | [ "--slowlog" ] -> Slowlog
  | [ "--health" ] -> Health
  | [ "--top" ] -> Top 6
  | [ "--top"; frames ] -> (
      match int_of_string_opt frames with
      | Some n when n > 0 -> Top n
      | Some _ | None -> usage ())
  | [ "--fate" ] -> Fate None
  | [ "--fate"; sel ] -> Fate (Some sel)
  | [ "--waterfall"; file ] -> Waterfall file
  | [ "--flightdump"; file ] -> Flightdump file
  | [ "--replay"; file ] -> Replay file
  | [ "--trace"; file ] -> Trace file
  | [ "--profile" ] -> Profile
  | [ "--flame"; file ] -> Flame file
  | [ "--chaos"; seed ] -> (
      match int_of_string_opt seed with Some s -> Chaos s | None -> usage ())
  | first :: _ as rest ->
      if String.length first > 0 && first.[0] = '-' then usage ()
      else Command (String.concat " " rest)

let setup () =
  let server = Server.create () in
  let wm = Wm.start ~resources:[ Templates.open_look ] server in
  let _xterm = Stock.xterm server ~at:(Geom.point 60 80) () in
  let _xclock = Stock.xclock server ~at:(Geom.point 600 60) () in
  ignore (Wm.step wm);
  (server, wm)

(* One swmcmd round-trip: append the line, let the WM drain it. *)
let roundtrip server wm sender line =
  Swmcmd.send server sender ~screen:0 line;
  ignore (Wm.step wm)

let read_reply server =
  match Swmcmd.read_result server ~screen:0 with
  | Some text -> text
  | None ->
      prerr_endline "swmcmd_cli: swm left no SWM_RESULT reply";
      exit 1

(* The scripted session the trace captures: a pan storm followed by an
   iconify burst, with the command lines submitted as encoded bytes through
   a Wire_conn so the trace starts at wire decode and reaches down through
   dispatch to pans and redraws. *)
let scripted_session server wm =
  let wire = Wire_conn.create server ~name:"swmcmd-wire" in
  let root = Wire_conn.root_id wire ~screen:0 in
  let submit line =
    (match
       Wire_conn.submit wire
         (Wire.Change_property
            { window = root; name = Prop.swm_command; value = line })
     with
    | Ok () -> ()
    | Error msg -> Printf.eprintf "swmcmd_cli: wire error: %s\n" msg);
    ignore (Wm.step wm)
  in
  for i = 1 to 10 do
    submit (Printf.sprintf "f.panTo(%d,%d)" (i * 120) (i * 80))
  done;
  for _ = 1 to 3 do
    submit "f.iconify(XTerm)";
    submit "f.deiconify(XTerm)"
  done;
  submit "f.panTo(0,0)"

let run_command command =
  let server, wm = setup () in
  let ctx = Wm.ctx wm in
  let sender = Server.connect server ~name:"swmcmd" in
  roundtrip server wm sender command;
  Printf.printf "sent: %s\n" command;
  List.iter
    (fun (c : Ctx.client) ->
      Printf.printf "client %-10s class=%-8s state=%s sticky=%b\n" c.Ctx.instance
        c.Ctx.class_
        (Swm_xlib.Prop.wm_state_to_string c.Ctx.state)
        c.Ctx.sticky)
    (Ctx.all_clients ctx);
  match ctx.Ctx.mode with
  | Ctx.Prompting _ -> print_endline "swm is now prompting for a target window"
  | _ -> ()

let run_introspection verb =
  let server, wm = setup () in
  let sender = Server.connect server ~name:"swmcmd" in
  (* Give the introspection something to report. *)
  roundtrip server wm sender "f.panTo(240,160)";
  roundtrip server wm sender verb;
  print_string (read_reply server);
  print_newline ()

(* --top: a refreshing terminal table of counter totals and rates, driven by
   f.stats round-trips while a scripted workload keeps the WM busy.  The
   reply is parsed (not regex-scraped) — the renderer doubles as a living
   check that f.stats emits well-formed JSON. *)
let render_top ~frame ~frames reply =
  match Json.parse reply with
  | Error msg ->
      Printf.eprintf "swmcmd_cli: unparseable f.stats reply: %s\n" msg;
      exit 1
  | Ok stats ->
      let buf = Buffer.create 1024 in
      Buffer.add_string buf "\027[2J\027[H";
      let sampler = Json.member "sampler" stats in
      let samples =
        match Option.bind sampler (Json.member "samples") with
        | Some v -> Option.value (Json.to_int v) ~default:0
        | None -> 0
      in
      let window_s =
        match Option.bind sampler (Json.member "window_ns") with
        | Some v -> Option.value (Json.to_float v) ~default:0. /. 1e9
        | None -> 0.
      in
      Buffer.add_string buf
        (Printf.sprintf "swm top — frame %d/%d   samples %d   window %.2fs\n\n"
           frame frames samples window_s);
      Buffer.add_string buf
        (Printf.sprintf "%-26s %14s %14s\n" "series" "total" "rate/s");
      (match Option.bind sampler (Json.member "series") with
      | Some (Json.Obj fields) ->
          List.iter
            (fun (name, v) ->
              let value =
                match Json.member "value" v with
                | Some n -> Option.value (Json.to_int n) ~default:0
                | None -> 0
              in
              let rate =
                match Json.member "rate_per_sec" v with
                | Some n -> Option.value (Json.to_float n) ~default:0.
                | None -> 0.
              in
              Buffer.add_string buf
                (Printf.sprintf "%-26s %14d %14.1f\n" name value rate))
            fields
      | Some _ | None -> ());
      (match Json.member "derived" stats with
      | Some (Json.Obj fields) ->
          Buffer.add_char buf '\n';
          List.iter
            (fun (name, v) ->
              Buffer.add_string buf
                (Printf.sprintf "%-26s %14.3f\n" name
                   (Option.value (Json.to_float v) ~default:0.)))
            fields
      | Some _ | None -> ());
      print_string (Buffer.contents buf);
      flush stdout

let run_top frames =
  let server, wm = setup () in
  let sender = Server.connect server ~name:"swmcmd" in
  for frame = 1 to frames do
    (* Scripted activity between frames so the rates have something to
       show: a pan sweep plus an iconify bounce. *)
    for i = 1 to 6 do
      roundtrip server wm sender
        (Printf.sprintf "f.panTo(%d,%d)"
           (((frame * 90) + (i * 40)) mod 900)
           (((frame * 60) + (i * 25)) mod 500))
    done;
    roundtrip server wm sender "f.iconify(XTerm)";
    roundtrip server wm sender "f.deiconify(XTerm)";
    roundtrip server wm sender "f.stats";
    render_top ~frame ~frames (read_reply server);
    if frame < frames then Unix.sleepf 0.25
  done;
  print_newline ()

(* The parsed reply of a file-export verb (f.waterfall, f.flame); exits 1
   on an unparseable reply or an {"error"}. *)
let export_reply server verb =
  let reply = read_reply server in
  match Json.parse reply with
  | Error msg ->
      Printf.eprintf "swmcmd_cli: unparseable %s reply: %s\n" verb msg;
      exit 1
  | Ok json -> (
      match Json.member "error" json with
      | Some (Json.Str msg) ->
          Printf.eprintf "swmcmd_cli: %s failed: %s\n" verb msg;
          exit 1
      | _ -> json)

let int_field json name =
  Option.value (Option.bind (Json.member name json) Json.to_int) ~default:0

(* --waterfall: run the scripted session so the waterfall ring has a story
   to tell, then have the WM write it atomically via f.waterfall. *)
let run_waterfall file =
  let server, wm = setup () in
  let sender = Server.connect server ~name:"swmcmd" in
  scripted_session server wm;
  roundtrip server wm sender (Printf.sprintf "f.waterfall(%s)" file);
  let json = export_reply server "f.waterfall" in
  Printf.printf "wrote %s: %d bytes\n" file (int_field json "bytes")

let run_flightdump file =
  let server, wm = setup () in
  let sender = Server.connect server ~name:"swmcmd" in
  (* Arm the recorder and give it a tail to dump. *)
  Recorder.start (Server.recorder server);
  for i = 1 to 8 do
    roundtrip server wm sender (Printf.sprintf "f.panTo(%d,%d)" (i * 100) (i * 60))
  done;
  roundtrip server wm sender (Printf.sprintf "f.flightdump(%s)" file);
  print_string (read_reply server);
  print_newline ()

let run_trace file =
  let server, wm = setup () in
  let sender = Server.connect server ~name:"swmcmd" in
  roundtrip server wm sender "f.trace(start)";
  scripted_session server wm;
  roundtrip server wm sender "f.trace(stop)";
  roundtrip server wm sender "f.trace(dump)";
  let json = read_reply server in
  Out_channel.with_open_text file (fun oc -> Out_channel.output_string oc json);
  let tracer = Server.tracer server in
  Printf.printf "wrote %s: %d events (%d dropped), %d slow spans\n" file
    (List.length (Tracing.events tracer))
    (Tracing.dropped tracer)
    (List.length (Tracing.slow_log tracer))

(* --profile / --flame: arm the profiler around the same scripted session the
   tracer uses, so the flamegraph covers wire decode → dispatch → pan →
   redraw, then read the aggregate back over SWM_RESULT. *)
let profiled_session server wm =
  let sender = Server.connect server ~name:"swmcmd" in
  roundtrip server wm sender "f.profile(start)";
  scripted_session server wm;
  roundtrip server wm sender "f.profile(stop)";
  sender

let run_profile () =
  let server, wm = setup () in
  let sender = profiled_session server wm in
  roundtrip server wm sender "f.profile(dump)";
  print_string (read_reply server);
  print_newline ()

let run_flame file =
  let server, wm = setup () in
  let sender = profiled_session server wm in
  roundtrip server wm sender (Printf.sprintf "f.flame(%s)" file);
  let json = export_reply server "f.flame" in
  let coverage =
    Option.value ~default:0.
      (Option.bind (Json.member "coverage" json) Json.to_float)
  in
  Printf.printf
    "wrote %s: %d collapsed stacks, %d bytes (coverage %.1f%% of %d ns \
     dispatch wall)\n"
    file (int_field json "frames") (int_field json "bytes") (coverage *. 100.)
    (int_field json "dispatch_wall_ns")

(* A replayable chaos demo: the test suite's storm at CLI scale, printing
   the injected fault schedule and what the WM absorbed. *)
let run_chaos seed =
  let module Fault = Swm_xlib.Fault in
  let module Metrics = Swm_xlib.Metrics in
  let module Workload = Swm_clients.Workload in
  let server = Server.create () in
  let wm = Wm.start ~resources:[ Templates.open_look ] server in
  let ctx = Wm.ctx wm in
  let apps = Workload.launch_n server 8 in
  ignore (Wm.step wm);
  let plan = Fault.storm ~seed () in
  Format.printf "fault plan: %a@." Fault.pp_plan plan;
  let fault = Server.arm_faults server ~protect:[ ctx.Ctx.conn ] plan in
  let client_side f =
    try f () with Server.Bad_window _ | Server.Bad_access _ -> ()
  in
  for round = 0 to 3 do
    client_side (fun () ->
        Workload.motion_storm server ~seed:(seed + round) ~steps:40 ());
    client_side (fun () ->
        Workload.configure_churn server ~seed:(seed + round) ~rounds:2 apps);
    client_side (fun () ->
        Workload.expose_storm server ~seed:(seed + round) ~rounds:1 apps);
    ignore (Wm.step wm)
  done;
  List.iter
    (fun action ->
      let n = Fault.count fault action in
      if n > 0 then Printf.printf "injected %-18s %d\n" (Fault.action_name action) n)
    Fault.all_actions;
  let m = Server.metrics server in
  Printf.printf "total faults injected   %d\n" (Fault.injected fault);
  Printf.printf "X errors absorbed by WM %d\n" (Metrics.counter_value m "wm.xerrors");
  Printf.printf "wire frames rejected    %d\n"
    (Metrics.counter_value m "wire.rejected_frames");
  Printf.printf "clients still managed   %d\n"
    (List.length (Ctx.all_clients ctx));
  (* The restart half of the story: a fresh WM re-adopts the survivors. *)
  Server.disarm_faults server;
  Wm.shutdown wm;
  let wm2 = Wm.start ~resources:[ Templates.open_look ] server in
  ignore (Wm.step wm2);
  Printf.printf "re-adopted by fresh WM  %d\n"
    (List.length (Ctx.all_clients (Wm.ctx wm2)));
  print_endline "WM survived the storm (replay with the same seed to reproduce)"

let () =
  match parse_args () with
  | Command command -> run_command command
  | Metrics None -> run_introspection "f.metrics"
  | Metrics (Some fmt) -> run_introspection (Printf.sprintf "f.metrics(%s)" fmt)
  | Slowlog -> run_introspection "f.slowlog"
  | Health -> run_introspection "f.health"
  | Top frames -> run_top frames
  | Fate None -> run_introspection "f.fate"
  | Fate (Some sel) -> run_introspection (Printf.sprintf "f.fate(%s)" sel)
  | Waterfall file -> run_waterfall file
  | Flightdump file -> run_flightdump file
  | Replay file -> run_introspection (Printf.sprintf "f.replay(%s)" file)
  | Trace file -> run_trace file
  | Profile -> run_profile ()
  | Flame file -> run_flame file
  | Chaos seed -> run_chaos seed

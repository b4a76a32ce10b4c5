(* swmcmd: demonstrate the out-of-process command protocol (paper §4.3).

   Since the simulated server lives in one process, this CLI shows the
   protocol round-trip: a client connection writes SWM_COMMAND on the root,
   the WM's event loop picks it up and executes it.  Four modes:

     swmcmd_cli "f.iconify(XTerm)"   send a command (argv joined) and print
                                     the managed clients' states
     swmcmd_cli --query SECTION[,ARG]
                                     arm the recorder, the tracer and the
                                     profiler, run a scripted session (pan
                                     storm + iconify burst), then send
                                     f.query(SECTION[,ARG]) and print the
                                     reply from SWM_RESULT; exit 1 on an
                                     {"error"} reply.  For example
                                     --query health, --query fate,#12,
                                     --query trace > trace.json,
                                     --query flame,out.collapsed
     swmcmd_cli --top [FRAMES]       refreshing terminal table of counter
                                     rates from f.query(stats) while a
                                     scripted workload runs (default 6
                                     frames)
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
module Profile = Swm_xlib.Profile
module Wm = Swm_core.Wm
module Ctx = Swm_core.Ctx
module Swmcmd = Swm_core.Swmcmd
module Templates = Swm_core.Templates
module Stock = Swm_clients.Stock

type mode =
  | Command of string
  | Query of string  (* SECTION[,ARG] *)
  | Top of int  (* frames to render *)
  | Chaos of int

let usage () =
  prerr_endline
    "usage: swmcmd_cli [COMMAND... | --query SECTION[,ARG] | --top [FRAMES] | \
     --chaos SEED]";
  exit 2

let parse_args () =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> Command "f.iconify(XTerm)"
  | [ "--query"; query ] -> Query query
  | [ "--top" ] -> Top 6
  | [ "--top"; frames ] -> (
      match int_of_string_opt frames with
      | Some n when n > 0 -> Top n
      | Some _ | None -> usage ())
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

(* The scripted session --query observes: a pan storm followed by an
   iconify burst, with the command lines submitted as encoded bytes through
   a Wire_conn so traces and profiles start at wire decode and reach down
   through dispatch to pans and redraws. *)
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

(* --query: arm every observer around the scripted session, so each
   section has a story to tell, then ask.  The tracer and the profiler are
   stopped before the query (what they gathered is kept); the recorder
   stays armed for flightdump. *)
let run_query query =
  let server, wm = setup () in
  let sender = Server.connect server ~name:"swmcmd" in
  Recorder.start (Server.recorder server);
  Tracing.start (Server.tracer server);
  Profile.start (Server.profiler server);
  scripted_session server wm;
  Profile.stop (Server.profiler server);
  Tracing.stop (Server.tracer server);
  roundtrip server wm sender (Printf.sprintf "f.query(%s)" query);
  let reply = read_reply server in
  print_string reply;
  print_newline ();
  if String.starts_with ~prefix:"{\"error\":" reply then exit 1

(* --top: a refreshing terminal table of counter totals and rates, driven by
   f.query(stats) round-trips while a scripted workload keeps the WM busy.
   The reply is parsed (not regex-scraped) — the renderer doubles as a
   living check that the stats section emits well-formed JSON. *)
let render_top ~frame ~frames reply =
  match Json.parse reply with
  | Error msg ->
      Printf.eprintf "swmcmd_cli: unparseable f.query(stats) reply: %s\n" msg;
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
    roundtrip server wm sender "f.query(stats)";
    render_top ~frame ~frames (read_reply server);
    if frame < frames then Unix.sleepf 0.25
  done;
  print_newline ()

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
  | Query query -> run_query query
  | Top frames -> run_top frames
  | Chaos seed -> run_chaos seed

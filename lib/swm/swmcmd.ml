module Server = Swm_xlib.Server
module Prop = Swm_xlib.Prop
module Metrics = Swm_xlib.Metrics
module Tracing = Swm_xlib.Tracing

let send server conn ~screen command =
  let root = Server.root server ~screen in
  Server.append_string_property server conn root ~name:Prop.swm_command command

let read_result server ~screen =
  let root = Server.root server ~screen in
  match Server.get_property server root ~name:Prop.swm_result with
  | Some (Prop.String text) -> Some text
  | Some _ | None -> None

let handle_property_change (ctx : Ctx.t) ~screen =
  let root = (Ctx.screen ctx screen).root in
  match Server.get_property ctx.server root ~name:Prop.swm_command with
  | Some (Prop.String text) ->
      Server.delete_property ctx.server ctx.conn root ~name:Prop.swm_command;
      let inv = Functions.invocation ~screen () in
      List.iter
        (fun line ->
          let line = String.trim line in
          if line <> "" then begin
            let recorder = Server.recorder ctx.server in
            if Swm_xlib.Recorder.enabled recorder then
              Swm_xlib.Recorder.record recorder ~kind:"swmcmd"
                ~attrs:[ ("screen", string_of_int screen) ]
                line;
            (* Per-line guard: one line hitting a freshly-destroyed window
               must not abort the rest of the batch. *)
            match
              Xguard.protect ctx ~where:"swmcmd"
                (fun () -> Functions.execute_string ctx inv line)
            with
            | Some (Ok ()) | None -> ()
            | Some (Error msg) ->
                (* A bad line must not vanish silently.  Reply with the
                   error, so the sender never mistakes the previous reply
                   for this line's; count it; leave a trace breadcrumb
                   carrying the offending text. *)
                Server.change_property ctx.server ctx.conn root ~name:Prop.swm_result
                  (Prop.String
                     (Printf.sprintf "{\"error\":%s}" (Metrics.json_string msg)));
                let metrics = Server.metrics ctx.server in
                Metrics.incr (Metrics.counter metrics "swmcmd.errors");
                Ctx.Log.debug (fun m -> m "swmcmd: bad line %S: %s" line msg);
                let tracer = Server.tracer ctx.server in
                if Tracing.enabled tracer then
                  Tracing.instant tracer "swmcmd.error"
                    ~attrs:[ ("line", line); ("error", msg) ]
          end)
        (String.split_on_char '\n' text)
  | Some _ | None -> ()

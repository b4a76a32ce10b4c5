(** The window-manager function interpreter (paper §4.2.1).

    Every behaviour in swm is a list of [f.*] functions attached to an
    object binding (or sent through swmcmd).  Functions execute in several
    modes:

    {v
f.iconify            iconify the current window
f.iconify(multiple)  iconify multiple windows, prompting for each
f.iconify(blob)      iconify all windows whose class matches "blob"
f.iconify(#$)        iconify the window under the mouse
f.iconify(#0x1234)   iconify a particular window id
    v}

    A function needing a window but invoked with none (e.g. from a root
    panel button or swmcmd) puts swm into prompting mode: the next button
    press selects the target and the pending functions run on it.

    [f.query(SECTION[,ARG])] answers every introspection question
    ([metrics], [stats], [health], [slowlog], [trace], [profile], [fate],
    [flame], [flightdump], [waterfall], [replay]; see docs/MANUAL.md): it
    writes the section's reply to the SWM_RESULT root property, where the
    swmcmd sender reads it back.  A missing or unknown section, or an
    argument the section does not take, replies [{"error":...}]. *)

type invocation = {
  inv_obj : Swm_oi.Wobj.t option;  (** the object the binding fired on *)
  inv_client : Ctx.client option;  (** the "current window", if any *)
  inv_screen : int;
}

val invocation :
  ?obj:Swm_oi.Wobj.t -> ?client:Ctx.client -> screen:int -> unit -> invocation

val execute : Ctx.t -> invocation -> Bindings.func_call list -> unit
(** Run a function list.  If some function needs a target window and none
    can be resolved, the context enters [Prompting] mode carrying that
    function and the rest of the list; {!resume_with_target} finishes the
    job. *)

val execute_string : Ctx.t -> invocation -> string -> (unit, string) result
(** Parse and run a command string such as ["f.iconify(xterm)"] or
    ["f.save f.zoom"] — the swmcmd entry point.  Known functions run even
    when the line also contains unknown names, but any unknown name turns
    the result into [Error] so callers (and the [swmcmd.errors] counter)
    see the typo. *)

val resume_with_target : Ctx.t -> Ctx.client -> unit
(** Complete a pending prompting-mode invocation on the selected client. *)

val set_replay_runner :
  (Swm_xlib.Replay.report -> Swm_xlib.Replay.outcome) -> unit
(** Install the engine behind [f.query(replay,FILE)].  Starting a fresh WM
    lives above this module in the dependency order, so {!Wm} installs its
    [Wm.replay] here at link time; the section replies with an error if
    invoked before any runner is installed. *)

val client_under_pointer : Ctx.t -> Ctx.client option

val places_hints : Ctx.t -> Session.hint list
(** The session records f.places would write: one per restartable managed
    client (those with WM_COMMAND), capturing geometry, icon position,
    state and stickiness. *)

val autosave : Ctx.t -> file_arg:string option -> unit
(** [f.autosave]: write the f.places content atomically (tmp + rename,
    trailing checksum) to [file_arg] or the [autosaveFile] resource, reset
    the autosave countdown, and count [session.autosaves].  {!Wm} calls
    this every [autosaveInterval] dispatched events, so a WM crash loses
    at most one interval of session state.  A no-op with no path. *)

(** A twm-style window manager baseline.

    The paper's first comparator: "easy to use but different window
    management policies are next to impossible to implement".  This WM is
    written directly against the (simulated) Xlib — no toolkit objects —
    with a hard-coded decoration (title bar with title text and an iconify
    square) and a [.twmrc]-style flat configuration file, the separate
    initialisation file the paper's Evaluation calls twm's biggest mistake.

    It exists to measure: (a) the per-window management cost of a direct
    WM versus the toolkit-based swm (Evaluation §8), and (b) the
    expressiveness gap (fixed policy knobs versus arbitrary panels). *)

type t

(** The supported [.twmrc] subset. *)
type config = {
  border_width : int;
  title_height : int;
  no_title : string list;  (** client classes decorated without a title bar *)
  auto_raise : bool;
  icon_x : int;
  use_icon_manager : bool;
      (** twm's Icon Manager: list iconified clients in a fixed-appearance
          window instead of desktop icons (the feature the paper's icon
          holders generalise, §4.1.5) *)
  bindings : (int * string * string) list;
      (** (button, context ["title"|"icon"|"root"], function name) *)
}

val default_config : config

val parse_twmrc : string -> (config, string) result
(** Parse the flat config format:
    {v
BorderWidth 2
TitleHeight 20
NoTitle { XClock XBiff }
AutoRaise true
Button1 = : title : f.raise
    v} *)

val start : ?config:config -> Swm_xlib.Server.t -> t
(** Claim the redirect on screen 0 and manage existing windows. *)

val step : t -> int
(** Process pending events (MapRequest → manage, clicks → actions). *)

val managed_count : t -> int
val frame_of : t -> Swm_xlib.Xid.t -> Swm_xlib.Xid.t option
val icon_manager_window : t -> Swm_xlib.Xid.t option
val iconify : t -> Swm_xlib.Xid.t -> unit
val deiconify : t -> Swm_xlib.Xid.t -> unit
val shutdown : t -> unit

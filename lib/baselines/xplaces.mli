(** The xplaces baseline (paper §7).

    "The xplaces client attempts to do simple session management but
    assumes that X Toolkit Intrinsics options are used.  This leaves users
    of the XView toolkit or other non-Intrinsics based toolkits out in the
    cold."

    xplaces walks the current windows and writes a script of
    [command -geometry WxH+X+Y] lines — appending the Xt geometry option to
    whatever WM_COMMAND says.  A client whose toolkit does not parse
    [-geometry] (XView wants [-Wp]/[-Ws]) starts at its default place, so
    the restore silently fails for it; swm's swmhints/WM_COMMAND-matching
    approach restores both.  {!Toolkit_sim} models that difference so the
    failure is observable. *)

val snapshot : Swm_xlib.Server.t -> screen:int -> string
(** The xplaces script for the screen's current top-level client windows
    (windows carrying WM_COMMAND), one [cmd -geometry ...] line each. *)

(** How different 1990 toolkits parse a command line's geometry options. *)
module Toolkit_sim : sig
  type flavour = Xt | Xview

  val flavour_of_command : string -> flavour
  (** XView programs are recognised by their [-W*] options in WM_COMMAND;
    everything else is assumed Xt. *)

  val apply_options : flavour -> string -> default:Swm_xlib.Geom.rect -> Swm_xlib.Geom.rect
  (** Where a freshly started client puts its window given its command
      line: Xt honours [-geometry]; XView honours [-Wp x y]/[-Ws w h] and
      silently ignores [-geometry]. *)
end

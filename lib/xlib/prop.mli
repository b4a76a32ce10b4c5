(** Typed window property values, including the ICCCM structures swm
    interprets (WM_HINTS, WM_NORMAL_HINTS, WM_STATE, WM_COMMAND, ...).

    A real X server stores properties as raw bytes tagged with a type atom;
    here we store the decoded form directly, which keeps every consumer
    honest about the structure while avoiding an encode/decode round-trip
    that would teach nothing. *)

(** Initial / current state of a client, as in WM_HINTS and WM_STATE. *)
type wm_state = Withdrawn | Normal | Iconic

val pp_wm_state : Format.formatter -> wm_state -> unit
val wm_state_to_string : wm_state -> string
val wm_state_of_string : string -> wm_state option

type wm_hints = {
  input : bool;
  initial_state : wm_state;
  icon_pixmap : string option;  (** bitmap name, e.g. ["xlogo32"] *)
  icon_window : Xid.t option;
  icon_position : Geom.point option;
}

val default_wm_hints : wm_hints

(** WM_NORMAL_HINTS.  [us_*] flags mean "user specified", [p_*] "program
    specified"; swm's Virtual Desktop gives the two different placement
    semantics (see {!section-placement} in the paper, §6.3.2). *)
type size_hints = {
  us_position : bool;
  p_position : bool;
  us_size : bool;
  p_size : bool;
  min_size : (int * int) option;
  max_size : (int * int) option;
  resize_inc : (int * int) option;
}

val default_size_hints : size_hints

type value =
  | String of string
  | String_list of string list  (** e.g. WM_COMMAND argv *)
  | Cardinal of int
  | Cardinal_list of int list
  | Window of Xid.t
  | Atom_list of string list
  | Wm_hints of wm_hints
  | Size_hints of size_hints
  | Wm_state_value of { state : wm_state; icon : Xid.t }
  | Wm_class of { instance : string; class_ : string }

(** {1 Well-known property names} *)

val wm_name : string
val wm_icon_name : string
val wm_class : string
val wm_command : string
val wm_client_machine : string
val wm_hints_name : string
val wm_normal_hints : string
val wm_state_name : string
val wm_transient_for : string
val wm_protocols : string
val wm_delete_window : string

val swm_root : string
(** The property swm writes on every client holding the window id of its
    effective root (real root or Virtual Desktop window), so toolkits can
    position popups correctly (paper §6.3.1). *)

val swm_command : string
(** Root-window property carrying swmcmd command strings (paper §4.3). *)

val swm_places : string
(** Root-window property accumulating swmhints session records (§7). *)

val swm_result : string
(** Root-window property where swm writes the reply to an introspection
    command ([f.query(SECTION[,ARG])]) so the sending
    client can read it back — the swmcmd round-trip run in reverse. *)

(** {1 Journal codec} *)

val value_to_text : value -> string
(** A reversible one-line text form of any value, for the replay journal
    (the wire codec only carries string properties). *)

val value_of_text : string -> value option
(** Inverse of {!value_to_text}; [None] on malformed input. *)

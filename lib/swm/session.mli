(** Session management (paper §7).

    swm does session management in two steps: an [swmhints] invocation per
    client gives swm hints about the client's previous state (appended to a
    root-window property), and swm interprets those hints when the client's
    window is reparented, matching on WM_COMMAND (and WM_CLIENT_MACHINE for
    remote clients) and restoring geometry, icon position, sticky state and
    normal/iconic state.

    [f.places] writes a file usable as an [.xinitrc] replacement: for each
    client an [swmhints] line followed by the client's own command line
    (with a customizable remote-start wrapper for clients on other hosts). *)

type hint = {
  geometry : Swm_xlib.Geom.rect;
  icon_geometry : Swm_xlib.Geom.point option;
  state : Swm_xlib.Prop.wm_state;
  sticky : bool;
  command : string;        (** the WM_COMMAND string, verbatim *)
  host : string option;    (** WM_CLIENT_MACHINE, when remote *)
}

val pp_hint : Format.formatter -> hint -> unit

(** {1 swmhints command-line encoding} *)

val hint_to_args : hint -> string
(** Render as an [swmhints] invocation's arguments, e.g.
    [-geometry 120x120+1010+359 -icongeometry +0+0 -state NormalState
     -cmd "oclock -geom 100x100"]. *)

val hint_of_args : string -> (hint, string) result
(** Parse the argument string back (shell-style quoting for [-cmd]). *)

(** {1 The restart table} *)

type table

val create_table : unit -> table
val add : table -> hint -> unit
val size : table -> int

type load_stats = {
  loaded : int;
  rejected : int;  (** malformed lines skipped *)
  first_error : string option;
}

val load : table -> string -> load_stats
(** Load the contents of the SWM_PLACES root property (one swmhints argument
    string per line).  Malformed lines are skipped, not fatal — the property
    is client-writable, so any byte sequence must load the salvageable
    entries and report the rest.  Never raises. *)

val take_match : table -> command:string -> host:string option -> hint option
(** Find and *remove* the entry whose command (and host, when both sides
    have one) matches — each hint restores at most one window; two windows
    with identical WM_COMMAND cannot be distinguished (a documented
    limitation in the paper). *)

(** {1 The places file} *)

val places_file :
  ?remote_format:string ->
  display:string ->
  local_host:string ->
  hint list ->
  string
(** Generate the [.xinitrc]-replacement text.  [remote_format] is the
    customizable remote-start string (paper §7.1) with [%h] = host,
    [%d] = display, [%c] = command; default
    ["rsh %h \"env DISPLAY=%d %c\" &"].  The text ends with a
    [# swm-checksum: <fnv1a-32-hex>] comment line over everything before
    it, so a truncated or bit-rotted file is detectable on reload while
    the file stays an executable shell script. *)

val checksum : string -> string
(** FNV-1a 32-bit, lower-case hex — the places-file checksum function. *)

val checksum_prefix : string
(** The checksum line's leading text, ["# swm-checksum: "]. *)

type places_read = {
  hints : hint list;  (** every line that parsed, in file order *)
  p_rejected : int;  (** swmhints lines that did not parse *)
  p_first_error : string option;
  p_checksum : [ `Valid | `Missing | `Mismatch ];
      (** [`Missing] for pre-checksum files (or ones truncated before the
          trailing line) *)
}

val read_places : string -> places_read
(** Lenient recovery: salvage every parseable hint from a places file,
    reporting what was lost and whether the checksum held.  Never
    raises — this is the crash-recovery path. *)

val parse_places_file : string -> (hint list, string) result
(** Strict recovery: [Error] if the checksum mismatches or any swmhints
    line is malformed (used by [swmhints check] and tests); files without
    a checksum line are accepted for compatibility. *)

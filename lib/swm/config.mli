(** swm's resource scoping (paper §3).

    All swm resources begin with the window-manager name or class ([swm] /
    [Swm], the former having precedence because a name match outranks a
    class match), followed by two components giving the colour capability
    and screen number:

    {v
swm.monochrome.screen0.xterm.console.decoration: noTitlePanel
Swm*panel.openLook: ...
    v}

    Specific resources additionally carry the client's WM_CLASS class and
    instance; and swm prepends the strings [shaped] and/or [sticky] when the
    client window is shaped or sticky, so decorations can depend on those
    states (paper §5, §6.2). *)

type t

val create : Swm_xrdb.Xrdb.t -> Swm_xlib.Server.t -> t
val db : t -> Swm_xrdb.Xrdb.t
val server : t -> Swm_xlib.Server.t

val query :
  t -> screen:int -> names:string list -> classes:string list -> string option
(** Non-specific resource: [swm.<color|monochrome>.screen<N>.<suffix>]. *)

val query1 : t -> screen:int -> string -> string option
(** [query1 t ~screen "panner"] — single-component suffix, class derived by
    capitalisation. *)

(** Identity and state of a client window, for specific-resource lookup. *)
type client_scope = {
  instance : string;
  class_ : string;
  shaped : bool;
  sticky : bool;
}

val query_client : t -> screen:int -> client_scope -> string -> string option
(** Specific resource for one client, e.g.
    [query_client t ~screen scope "decoration"].  Falls back to matching
    non-specific entries per ordinary Xrm precedence (a
    [swm*decoration: foo] entry matches any client).

    An instance name that no entry of the database mentions
    ({!Swm_xrdb.Xrdb.mentions}) is queried as [""]: no component can equal
    [""], so the answer is the one the real name gets, and every unknown
    instance of one class shares one memo entry instead of scanning. *)

val query_client_bool :
  t -> screen:int -> client_scope -> string -> default:bool -> bool

val object_query :
  t -> screen:int -> names:string list -> classes:string list -> string option
(** The lookup function handed to the OI toolkit: resolves an object
    attribute path (e.g. [button.foo.bindings]) under the swm prefix. *)

val panel_definition : t -> screen:int -> string -> string option
(** The definition string of panel [name] ([swm*panel.<name>]). *)

val menu_definition : t -> screen:int -> string -> string option

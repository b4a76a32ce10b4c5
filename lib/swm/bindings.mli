(** Object bindings: Xt-translation-style event → window-manager-function
    lists (paper §4.2).

    {v
swm*button.foo.bindings: \
    <Btn1>   : f.raise \
    <Btn2>   : f.save f.zoom \
    <Key>Up  : f.warpVertical(-50)
    v}

    Any number of bindings per object; any number of functions per binding.
    Modifier names may precede the event spec ([Shift<Btn1>: ...]). *)

type event_pattern =
  | Button of int * Swm_xlib.Keysym.modifiers         (** [<BtnN>] press *)
  | Button_up of int * Swm_xlib.Keysym.modifiers      (** [<BtnNUp>] release *)
  | Key of Swm_xlib.Keysym.t * Swm_xlib.Keysym.modifiers  (** [<Key>Sym] *)
  | Enter
  | Leave
  | Drop
      (** fires when a window move ends with the pointer over this object —
          the drag-and-drop destination behaviour of root icons (paper
          §4.1.3) *)

type func_call = { fname : string; farg : string option }
(** One [f.name] or [f.name(arg)] invocation; the argument is kept raw and
    interpreted by {!Functions}. *)

type binding = { pattern : event_pattern; funcs : func_call list }

val parse : string -> (binding list, string) result
(** Parse a bindings resource value.  Bindings may be separated by newlines
    or simply juxtaposed (the next binding starts at its modifier/[<]). *)

val parse_exn : string -> binding list

val matches : binding -> Swm_xlib.Event.t -> bool
(** Does this binding fire on that device event? *)

val lookup : binding list -> Swm_xlib.Event.t -> func_call list
(** Functions to run for the event ([[]] when nothing matches). *)

val drop_functions : binding list -> func_call list
(** The functions of the [<Drop>] binding, if any. *)

val to_string : binding list -> string

type wm_state = Withdrawn | Normal | Iconic

let wm_state_to_string = function
  | Withdrawn -> "WithdrawnState"
  | Normal -> "NormalState"
  | Iconic -> "IconicState"

let wm_state_of_string = function
  | "WithdrawnState" -> Some Withdrawn
  | "NormalState" -> Some Normal
  | "IconicState" -> Some Iconic
  | _ -> None

let pp_wm_state ppf s = Format.pp_print_string ppf (wm_state_to_string s)

type wm_hints = {
  input : bool;
  initial_state : wm_state;
  icon_pixmap : string option;
  icon_window : Xid.t option;
  icon_position : Geom.point option;
}

let default_wm_hints =
  {
    input = true;
    initial_state = Normal;
    icon_pixmap = None;
    icon_window = None;
    icon_position = None;
  }

type size_hints = {
  us_position : bool;
  p_position : bool;
  us_size : bool;
  p_size : bool;
  min_size : (int * int) option;
  max_size : (int * int) option;
  resize_inc : (int * int) option;
}

let default_size_hints =
  {
    us_position = false;
    p_position = false;
    us_size = false;
    p_size = false;
    min_size = None;
    max_size = None;
    resize_inc = None;
  }

type value =
  | String of string
  | String_list of string list
  | Cardinal of int
  | Cardinal_list of int list
  | Window of Xid.t
  | Atom_list of string list
  | Wm_hints of wm_hints
  | Size_hints of size_hints
  | Wm_state_value of { state : wm_state; icon : Xid.t }
  | Wm_class of { instance : string; class_ : string }

let wm_name = "WM_NAME"
let wm_icon_name = "WM_ICON_NAME"
let wm_class = "WM_CLASS"
let wm_command = "WM_COMMAND"
let wm_client_machine = "WM_CLIENT_MACHINE"
let wm_hints_name = "WM_HINTS"
let wm_normal_hints = "WM_NORMAL_HINTS"
let wm_state_name = "WM_STATE"
let wm_transient_for = "WM_TRANSIENT_FOR"
let wm_protocols = "WM_PROTOCOLS"
let wm_delete_window = "WM_DELETE_WINDOW"
let swm_root = "SWM_ROOT"
let swm_command = "SWM_COMMAND"
let swm_places = "SWM_PLACES"
let swm_result = "SWM_RESULT"

(* -------- journal codec --------

   A reversible one-line text form for every value variant, so the replay
   journal can carry structured property writes (WM_HINTS, WM_CLASS, size
   hints) that the wire request codec — string properties only — cannot.
   String subfields travel as hex; the container grammar is a tag
   character followed by comma-separated fields, with "-" for None. *)

let hex = Wire.to_hex
let unhex s = match Wire.of_hex s with Ok v -> Some v | Error _ -> None

let opt f = function None -> "-" | Some v -> f v
let pair (a, b) = Printf.sprintf "%d:%d" a b
let point (p : Geom.point) = Printf.sprintf "%d:%d" p.px p.py

let state_char = function Withdrawn -> "w" | Normal -> "n" | Iconic -> "i"

let state_of_char = function
  | "w" -> Some Withdrawn
  | "n" -> Some Normal
  | "i" -> Some Iconic
  | _ -> None

let value_to_text = function
  | String s -> "S" ^ s
  | String_list l -> "L" ^ String.concat "," (List.map hex l)
  | Cardinal n -> "C" ^ string_of_int n
  | Cardinal_list l -> "N" ^ String.concat "," (List.map string_of_int l)
  | Window id -> "W" ^ string_of_int (Xid.to_int id)
  | Atom_list l -> "A" ^ String.concat "," (List.map hex l)
  | Wm_hints h ->
      Printf.sprintf "H%d,%s,%s,%s,%s"
        (if h.input then 1 else 0)
        (state_char h.initial_state)
        (opt hex h.icon_pixmap)
        (opt (fun id -> string_of_int (Xid.to_int id)) h.icon_window)
        (opt point h.icon_position)
  | Size_hints h ->
      Printf.sprintf "Z%d%d%d%d,%s,%s,%s"
        (if h.us_position then 1 else 0)
        (if h.p_position then 1 else 0)
        (if h.us_size then 1 else 0)
        (if h.p_size then 1 else 0)
        (opt pair h.min_size) (opt pair h.max_size) (opt pair h.resize_inc)
  | Wm_state_value { state; icon } ->
      Printf.sprintf "T%s,%d" (state_char state) (Xid.to_int icon)
  | Wm_class { instance; class_ } ->
      Printf.sprintf "K%s,%s" (hex instance) (hex class_)

let value_of_text s =
  let ( let* ) = Option.bind in
  if s = "" then None
  else
    let rest = String.sub s 1 (String.length s - 1) in
    let fields () = String.split_on_char ',' rest in
    let parse_opt f = function "-" -> Some None | v -> Option.map Option.some (f v) in
    let int s = int_of_string_opt s in
    let parse_pair v =
      match String.split_on_char ':' v with
      | [ a; b ] ->
          let* a = int a in
          let* b = int b in
          Some (a, b)
      | _ -> None
    in
    let all f l =
      List.fold_right
        (fun x acc ->
          let* acc = acc in
          let* x = f x in
          Some (x :: acc))
        l (Some [])
    in
    match s.[0] with
    | 'S' -> Some (String rest)
    | 'L' ->
        if rest = "" then Some (String_list [])
        else
          let* items = all unhex (fields ()) in
          Some (String_list items)
    | 'C' ->
        let* n = int rest in
        Some (Cardinal n)
    | 'N' ->
        if rest = "" then Some (Cardinal_list [])
        else
          let* items = all int (fields ()) in
          Some (Cardinal_list items)
    | 'W' ->
        let* n = int rest in
        Some (Window (Xid.of_int n))
    | 'A' ->
        if rest = "" then Some (Atom_list [])
        else
          let* items = all unhex (fields ()) in
          Some (Atom_list items)
    | 'H' -> (
        match fields () with
        | [ input; state; pixmap; icon_window; icon_position ] ->
            let* input = int input in
            let* initial_state = state_of_char state in
            let* icon_pixmap = parse_opt unhex pixmap in
            let* icon_window =
              parse_opt (fun v -> Option.map Xid.of_int (int v)) icon_window
            in
            let* icon_position =
              parse_opt
                (fun v ->
                  let* x, y = parse_pair v in
                  Some (Geom.point x y))
                icon_position
            in
            Some
              (Wm_hints
                 { input = input <> 0; initial_state; icon_pixmap; icon_window;
                   icon_position })
        | _ -> None)
    | 'Z' -> (
        match fields () with
        | [ flags; min_size; max_size; resize_inc ]
          when String.length flags = 4 ->
            let bit i = flags.[i] = '1' in
            let* min_size = parse_opt parse_pair min_size in
            let* max_size = parse_opt parse_pair max_size in
            let* resize_inc = parse_opt parse_pair resize_inc in
            Some
              (Size_hints
                 { us_position = bit 0; p_position = bit 1; us_size = bit 2;
                   p_size = bit 3; min_size; max_size; resize_inc })
        | _ -> None)
    | 'T' -> (
        match fields () with
        | [ state; icon ] ->
            let* state = state_of_char state in
            let* icon = int icon in
            Some (Wm_state_value { state; icon = Xid.of_int icon })
        | _ -> None)
    | 'K' -> (
        match fields () with
        | [ instance; class_ ] ->
            let* instance = unhex instance in
            let* class_ = unhex class_ in
            Some (Wm_class { instance; class_ })
        | _ -> None)
    | _ -> None

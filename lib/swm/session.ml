module Geom = Swm_xlib.Geom
module Prop = Swm_xlib.Prop

type hint = {
  geometry : Geom.rect;
  icon_geometry : Geom.point option;
  state : Prop.wm_state;
  sticky : bool;
  command : string;
  host : string option;
}

let pp_hint ppf h =
  Format.fprintf ppf "hint{%a state=%a cmd=%S%s}" Geom.pp_rect h.geometry
    Prop.pp_wm_state h.state h.command
    (match h.host with Some host -> " @" ^ host | None -> "")

(* -------- swmhints argument encoding -------- *)

let quote s = "\"" ^ String.concat "\\\"" (String.split_on_char '"' s) ^ "\""

let geometry_string (r : Geom.rect) = Printf.sprintf "%dx%d+%d+%d" r.w r.h r.x r.y

let hint_to_args h =
  let buf = Buffer.create 128 in
  Buffer.add_string buf ("-geometry " ^ geometry_string h.geometry);
  (match h.icon_geometry with
  | Some p -> Buffer.add_string buf (Printf.sprintf " -icongeometry +%d+%d" p.px p.py)
  | None -> ());
  Buffer.add_string buf (" -state " ^ Prop.wm_state_to_string h.state);
  if h.sticky then Buffer.add_string buf " -sticky";
  (match h.host with
  | Some host -> Buffer.add_string buf (" -host " ^ host)
  | None -> ());
  Buffer.add_string buf (" -cmd " ^ quote h.command);
  Buffer.contents buf

(* Split shell-style: whitespace-separated words; double quotes group, and a
   backslash-quote escapes a quote inside them. *)
let split_args s =
  let words = ref [] in
  let buf = Buffer.create 16 in
  let in_quotes = ref false in
  let pending = ref false in
  let flush () =
    if !pending then begin
      words := Buffer.contents buf :: !words;
      Buffer.clear buf;
      pending := false
    end
  in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '"' ->
        in_quotes := not !in_quotes;
        pending := true
    | '\\' when !i + 1 < n && s.[!i + 1] = '"' ->
        Buffer.add_char buf '"';
        pending := true;
        incr i
    | (' ' | '\t') when not !in_quotes -> flush ()
    | c ->
        Buffer.add_char buf c;
        pending := true);
    incr i
  done;
  flush ();
  if !in_quotes then Error "unterminated quote" else Ok (List.rev !words)

let hint_of_args_inner s =
  match split_args s with
  | Error _ as e -> e
  | Ok words ->
      let geometry = ref None
      and icon_geometry = ref None
      and state = ref Prop.Normal
      and sticky = ref false
      and command = ref None
      and host = ref None
      and err = ref None in
      let rec loop = function
        | [] -> ()
        | "-geometry" :: g :: rest -> (
            match Geom.parse g with
            | Ok spec ->
                let r =
                  Geom.resolve spec ~default:(Geom.rect 0 0 100 100)
                    ~within:(Geom.rect 0 0 0 0)
                in
                (* Resolve against a zero extent: From_start offsets come out
                   directly; session geometry always uses +X+Y. *)
                geometry := Some r;
                loop rest
            | Error msg -> err := Some ("bad -geometry: " ^ msg))
        | "-icongeometry" :: g :: rest -> (
            match Geom.parse g with
            | Ok { xoff = Some (Geom.From_start x); yoff = Some (Geom.From_start y); _ }
              ->
                icon_geometry := Some (Geom.point x y);
                loop rest
            | Ok _ -> err := Some "bad -icongeometry"
            | Error msg -> err := Some ("bad -icongeometry: " ^ msg))
        | "-state" :: s :: rest -> (
            match Prop.wm_state_of_string s with
            | Some st ->
                state := st;
                loop rest
            | None -> err := Some ("unknown state " ^ s))
        | "-sticky" :: rest ->
            sticky := true;
            loop rest
        | "-host" :: h :: rest ->
            host := Some h;
            loop rest
        | "-cmd" :: c :: rest ->
            command := Some c;
            loop rest
        | w :: _ -> err := Some ("unknown swmhints option " ^ w)
      in
      loop words;
      (match !err with
      | Some msg -> Error msg
      | None -> (
          match (!geometry, !command) with
          | None, _ -> Error "missing -geometry"
          | _, None -> Error "missing -cmd"
          | Some geometry, Some command ->
              Ok
                {
                  geometry;
                  icon_geometry = !icon_geometry;
                  state = !state;
                  sticky = !sticky;
                  command;
                  host = !host;
                }))

(* Hints arrive from root-window property bytes a hostile or faulty client
   controls entirely, so the parser must degrade to [Error] on any input. *)
let hint_of_args s =
  match hint_of_args_inner s with
  | r -> r
  | exception e -> Error ("swmhints parse failure: " ^ Printexc.to_string e)

(* -------- restart table -------- *)

module Atom = Swm_xlib.Atom

(* Commands are interned into a table-private atom space when a hint is
   added, so the per-manage restart probe compares interned ids instead of
   re-walking command strings down the whole table. *)
type entry = { e_cmd : Atom.t; e_hint : hint }
type table = { mutable entries : entry list; interned : Atom.table }

let create_table () = { entries = []; interned = Atom.create_table () }

let add table hint =
  let entry = { e_cmd = Atom.intern table.interned hint.command; e_hint = hint } in
  table.entries <- table.entries @ [ entry ]

let size table = List.length table.entries

type load_stats = { loaded : int; rejected : int; first_error : string option }

(* Graceful degradation: a corrupt line loses that one hint, never the
   session.  SWM_PLACES is client-writable, so any byte sequence must load. *)
let load table text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  List.fold_left
    (fun stats line ->
      match hint_of_args line with
      | Ok hint ->
          add table hint;
          { stats with loaded = stats.loaded + 1 }
      | Error msg ->
          {
            stats with
            rejected = stats.rejected + 1;
            first_error =
              (match stats.first_error with
              | Some _ as e -> e
              | None -> Some (Printf.sprintf "%s in %S" msg line));
          })
    { loaded = 0; rejected = 0; first_error = None }
    lines

let take_match table ~command ~host =
  (* Intern the probe once; an unknown command can't match any hint. *)
  match Atom.intern_existing table.interned command with
  | None -> None
  | Some cmd ->
      let host_matches hint =
        match (hint.host, host) with
        | Some a, Some b -> String.equal a b
        | None, _ | _, None -> true
      in
      let rec extract acc = function
        | [] -> None
        | entry :: rest
          when Atom.equal entry.e_cmd cmd && host_matches entry.e_hint ->
            table.entries <- List.rev_append acc rest;
            Some entry.e_hint
        | entry :: rest -> extract (entry :: acc) rest
      in
      extract [] table.entries

(* -------- places file -------- *)

let default_remote_format = "rsh %h \"env DISPLAY=%d %c\" &"

let expand_format fmt ~host ~display ~command =
  let buf = Buffer.create (String.length fmt + 32) in
  let n = String.length fmt in
  let i = ref 0 in
  while !i < n do
    if fmt.[!i] = '%' && !i + 1 < n then begin
      (match fmt.[!i + 1] with
      | 'h' -> Buffer.add_string buf host
      | 'd' -> Buffer.add_string buf display
      | 'c' -> Buffer.add_string buf command
      | c ->
          Buffer.add_char buf '%';
          Buffer.add_char buf c);
      i := !i + 2
    end
    else begin
      Buffer.add_char buf fmt.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* FNV-1a 32-bit over the file content preceding the checksum line.  Not
   cryptographic — it detects truncation and bit rot, which is what a WM
   crash mid-write (or a dying disk) produces. *)
let checksum text =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xffffffff)
    text;
  Printf.sprintf "%08x" !h

let checksum_prefix = "# swm-checksum: "

let places_file ?(remote_format = default_remote_format) ~display ~local_host hints =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "#!/bin/sh\n# written by swm f.places\n";
  List.iter
    (fun hint ->
      Buffer.add_string buf ("swmhints " ^ hint_to_args hint ^ "\n");
      let start =
        match hint.host with
        | Some host when not (String.equal host local_host) ->
            expand_format remote_format ~host ~display ~command:hint.command
        | Some _ | None -> hint.command ^ " &"
      in
      Buffer.add_string buf (start ^ "\n"))
    hints;
  let content = Buffer.contents buf in
  (* The trailing checksum line is itself a shell comment, so the file
     remains an executable .xinitrc replacement. *)
  content ^ checksum_prefix ^ checksum content ^ "\n"

type places_read = {
  hints : hint list;
  p_rejected : int;
  p_first_error : string option;
  p_checksum : [ `Valid | `Missing | `Mismatch ];
}

let read_places text =
  let prefix_len = String.length checksum_prefix in
  let covered = Buffer.create (String.length text) in
  let hints = ref [] in
  let rejected = ref 0 in
  let first_error = ref None in
  let check = ref `Missing in
  List.iter
    (fun raw ->
      let line = String.trim raw in
      if
        String.length line >= prefix_len
        && String.sub line 0 prefix_len = checksum_prefix
      then begin
        let expect =
          String.trim (String.sub line prefix_len (String.length line - prefix_len))
        in
        check :=
          if String.equal expect (checksum (Buffer.contents covered)) then `Valid
          else `Mismatch
      end
      else begin
        Buffer.add_string covered raw;
        Buffer.add_char covered '\n';
        if String.length line > 9 && String.sub line 0 9 = "swmhints " then
          match hint_of_args (String.sub line 9 (String.length line - 9)) with
          | Ok hint -> hints := hint :: !hints
          | Error msg ->
              incr rejected;
              if !first_error = None then
                first_error := Some (Printf.sprintf "%s in %S" msg line)
      end)
    (String.split_on_char '\n' text);
  {
    hints = List.rev !hints;
    p_rejected = !rejected;
    p_first_error = !first_error;
    p_checksum = !check;
  }

let parse_places_file text =
  let r = read_places text in
  match (r.p_checksum, r.p_first_error) with
  | `Mismatch, _ -> Error "places file checksum mismatch"
  | (`Valid | `Missing), Some msg -> Error msg
  | (`Valid | `Missing), None -> Ok r.hints

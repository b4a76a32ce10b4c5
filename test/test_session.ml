module Session = Swm_core.Session
module Geom = Swm_xlib.Geom
module Prop = Swm_xlib.Prop

let check = Alcotest.check

let sample_hint =
  {
    Session.geometry = Geom.rect 1010 359 120 120;
    icon_geometry = Some (Geom.point 0 0);
    state = Prop.Normal;
    sticky = false;
    command = "oclock -geom 100x100";
    host = None;
  }

let test_args_paper_example () =
  (* The paper's §7 example encoding. *)
  let args = Session.hint_to_args sample_hint in
  check Alcotest.bool "geometry" true
    (String.length args > 0
    && Astring_contains.contains args "-geometry 120x120+1010+359");
  check Alcotest.bool "icon geometry" true
    (Astring_contains.contains args "-icongeometry +0+0");
  check Alcotest.bool "state" true (Astring_contains.contains args "-state NormalState");
  check Alcotest.bool "cmd quoted" true
    (Astring_contains.contains args "-cmd \"oclock -geom 100x100\"")

let test_args_roundtrip () =
  List.iter
    (fun hint ->
      match Session.hint_of_args (Session.hint_to_args hint) with
      | Ok parsed ->
          check Alcotest.bool "geometry" true
            (Geom.rect_equal parsed.Session.geometry hint.Session.geometry);
          check Alcotest.bool "icon" true
            (parsed.icon_geometry = hint.icon_geometry);
          check Alcotest.bool "state" true (parsed.state = hint.state);
          check Alcotest.bool "sticky" true (parsed.sticky = hint.sticky);
          check Alcotest.string "command" hint.command parsed.command;
          check Alcotest.bool "host" true (parsed.host = hint.host)
      | Error msg -> Alcotest.fail msg)
    [
      sample_hint;
      { sample_hint with sticky = true; state = Prop.Iconic; icon_geometry = None };
      { sample_hint with host = Some "goofy"; command = "xterm -e \"vi file\"" };
    ]

let test_args_errors () =
  List.iter
    (fun bad ->
      match Session.hint_of_args bad with
      | Ok _ -> Alcotest.failf "expected %S to fail" bad
      | Error _ -> ())
    [
      "";
      "-geometry 100x100+0+0";
      (* no -cmd *)
      "-cmd \"x\"";
      (* no geometry *)
      "-geometry bogus -cmd \"x\"";
      "-state NoSuchState -geometry 10x10+0+0 -cmd \"x\"";
      "-cmd \"unterminated";
    ]

let test_table_matching () =
  let table = Session.create_table () in
  Session.add table sample_hint;
  Session.add table { sample_hint with command = "xterm"; host = Some "hostA" };
  check Alcotest.int "two entries" 2 (Session.size table);
  (* Host must match when both sides name one. *)
  check Alcotest.bool "wrong host" true
    (Session.take_match table ~command:"xterm" ~host:(Some "hostB") = None);
  check Alcotest.bool "right host" true
    (Session.take_match table ~command:"xterm" ~host:(Some "hostA") <> None);
  check Alcotest.int "entry consumed" 1 (Session.size table);
  (* Entries restore at most one window each. *)
  check Alcotest.bool "first oclock" true
    (Session.take_match table ~command:"oclock -geom 100x100" ~host:None <> None);
  check Alcotest.bool "second oclock has no entry" true
    (Session.take_match table ~command:"oclock -geom 100x100" ~host:None = None)

let test_identical_commands_limitation () =
  (* Two windows with identical WM_COMMAND: swm cannot distinguish them;
     matches are first-come-first-served. *)
  let table = Session.create_table () in
  Session.add table { sample_hint with geometry = Geom.rect 0 0 10 10 };
  Session.add table { sample_hint with geometry = Geom.rect 50 50 10 10 };
  let first =
    Option.get (Session.take_match table ~command:sample_hint.command ~host:None)
  in
  check Alcotest.int "first entry wins" 0 first.geometry.x;
  let second =
    Option.get (Session.take_match table ~command:sample_hint.command ~host:None)
  in
  check Alcotest.int "then the second" 50 second.geometry.x

let test_load () =
  let table = Session.create_table () in
  let text =
    Session.hint_to_args sample_hint ^ "\n\n"
    ^ Session.hint_to_args { sample_hint with command = "xterm" }
  in
  let stats = Session.load table text in
  check Alcotest.int "loaded" 2 stats.Session.loaded;
  check Alcotest.int "rejected" 0 stats.Session.rejected;
  check Alcotest.int "size" 2 (Session.size table)

let test_load_salvages_good_lines () =
  (* SWM_PLACES is client-writable: bad lines are skipped and counted, good
     ones still load, and load never raises. *)
  let table = Session.create_table () in
  let text =
    "-geometry garbage -cmd \"x\"\n"
    ^ Session.hint_to_args sample_hint
    ^ "\n-cmd \"unterminated\n"
  in
  let stats = Session.load table text in
  check Alcotest.int "loaded" 1 stats.Session.loaded;
  check Alcotest.int "rejected" 2 stats.Session.rejected;
  check Alcotest.bool "first error reported" true (stats.Session.first_error <> None);
  check Alcotest.int "size" 1 (Session.size table)

let test_args_hostile () =
  (* Malformed / hostile swmhints input must return Error, never raise:
     these bytes can arrive from any client via SWM_PLACES (or from the
     fault injector garbling the property). *)
  List.iter
    (fun bad ->
      match Session.hint_of_args bad with
      | Ok _ -> Alcotest.failf "expected %S to fail" bad
      | Error _ -> ()
      | exception e ->
          Alcotest.failf "hint_of_args raised on %S: %s" bad (Printexc.to_string e))
    [
      (* unbalanced quotes, in both positions *)
      "-geometry 10x10+0+0 -cmd \"xterm";
      "-geometry 10x10+0+0 -cmd xterm\"";
      "\"";
      (* missing -cmd entirely *)
      "-geometry 10x10+0+0 -state NormalState -sticky";
      (* oversized geometry numerals: int_of_string overflow territory *)
      "-geometry 999999999999999999999999x10+0+0 -cmd \"x\"";
      "-geometry 10x10+99999999999999999999999999+0 -cmd \"x\"";
      (* flag with no value at end of line *)
      "-geometry 10x10+0+0 -cmd \"x\" -state";
      (* binary junk, as after wire corruption *)
      "-geometry \x00\xff\x01 -cmd \"\x07\"";
    ]

let test_places_file () =
  let hints =
    [
      sample_hint;
      { sample_hint with command = "xterm"; host = Some "remotehost"; sticky = true };
    ]
  in
  let content = Session.places_file ~display:":0" ~local_host:"localhost" hints in
  check Alcotest.bool "local start line" true
    (Astring_contains.contains content "oclock -geom 100x100 &");
  check Alcotest.bool "remote start wrapped" true
    (Astring_contains.contains content "rsh remotehost \"env DISPLAY=:0 xterm\" &");
  check Alcotest.bool "swmhints lines" true
    (Astring_contains.contains content "swmhints -geometry");
  (* And it parses back. *)
  match Session.parse_places_file content with
  | Ok parsed ->
      check Alcotest.int "both hints recovered" 2 (List.length parsed);
      check Alcotest.bool "sticky preserved" true
        (List.exists (fun h -> h.Session.sticky) parsed)
  | Error msg -> Alcotest.fail msg

let test_places_checksum () =
  let content = Session.places_file ~display:":0" ~local_host:"localhost" [ sample_hint ] in
  check Alcotest.bool "checksum trailer present" true
    (Astring_contains.contains content Session.checksum_prefix);
  (match Session.read_places content with
  | { Session.p_checksum = `Valid; p_rejected = 0; hints = [ _ ]; _ } -> ()
  | _ -> Alcotest.fail "pristine file should verify");
  (* Tamper with a body byte: strict parse refuses, lenient read reports. *)
  let tampered =
    String.mapi (fun i c -> if i = 10 && c <> 'Z' then 'Z' else c) content
  in
  (match Session.parse_places_file tampered with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered file should fail strict parse");
  (match Session.read_places tampered with
  | { Session.p_checksum = `Mismatch; _ } -> ()
  | _ -> Alcotest.fail "tampered file should report Mismatch");
  (* A checksum-less file (pre-upgrade format) is still accepted. *)
  let lines = String.split_on_char '\n' content in
  let body =
    List.filter
      (fun l -> not (Astring_contains.contains l Session.checksum_prefix))
      lines
    |> String.concat "\n"
  in
  match Session.parse_places_file body with
  | Ok [ _ ] -> ()
  | Ok _ | Error _ -> Alcotest.fail "checksum-less file should still parse"

let test_places_truncated () =
  (* A crash mid-write leaves a prefix of the file: lenient read salvages
     whole swmhints lines and flags the checksum, and never raises. *)
  let hints = [ sample_hint; { sample_hint with command = "xterm" } ] in
  let content = Session.places_file ~display:":0" ~local_host:"localhost" hints in
  for cut = 0 to String.length content - 1 do
    let prefix = String.sub content 0 cut in
    let r = Session.read_places prefix in
    check Alcotest.bool "truncated checksum never Valid or salvage ok" true
      (r.Session.p_checksum <> `Valid || List.length r.Session.hints <= 2)
  done

let test_write_atomic () =
  let path = Filename.temp_file "swm_places" ".test" in
  Swm_xlib.Recorder.write_atomic ~path "hello\n";
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  check Alcotest.string "content written" "hello" line;
  check Alcotest.bool "tmp file cleaned up" false (Sys.file_exists (path ^ ".tmp"))

let test_custom_remote_format () =
  let hints = [ { sample_hint with host = Some "faraway" } ] in
  let content =
    Session.places_file ~remote_format:"ssh %h -- DISPLAY=%d %c &" ~display:":1"
      ~local_host:"localhost" hints
  in
  check Alcotest.bool "custom format used" true
    (Astring_contains.contains content "ssh faraway -- DISPLAY=:1 oclock -geom 100x100 &")

(* Property: hint_to_args/hint_of_args roundtrips for generated hints. *)
let hint_gen =
  QCheck2.Gen.(
    map
      (fun ((x, y, w, h), sticky, statei, cmd_tail) ->
        {
          Session.geometry = Geom.rect x y (w + 1) (h + 1);
          icon_geometry = None;
          state = (if statei then Prop.Normal else Prop.Iconic);
          sticky;
          command = "cmd" ^ String.concat "" (List.map string_of_int cmd_tail);
          host = None;
        })
      (quad
         (quad (int_range 0 3000) (int_range 0 3000) (int_range 1 2000)
            (int_range 1 2000))
         bool bool
         (list_size (int_range 0 5) (int_range 0 9))))

let prop_roundtrip =
  QCheck2.Test.make ~name:"swmhints args roundtrip" ~count:300 hint_gen (fun hint ->
      match Session.hint_of_args (Session.hint_to_args hint) with
      | Ok parsed ->
          Geom.rect_equal parsed.Session.geometry hint.Session.geometry
          && parsed.sticky = hint.sticky && parsed.state = hint.state
          && String.equal parsed.command hint.command
      | Error _ -> false)

let suite =
  [
    Alcotest.test_case "paper example encoding" `Quick test_args_paper_example;
    Alcotest.test_case "args roundtrip" `Quick test_args_roundtrip;
    Alcotest.test_case "args errors" `Quick test_args_errors;
    Alcotest.test_case "table matching and removal" `Quick test_table_matching;
    Alcotest.test_case "identical WM_COMMAND limitation" `Quick
      test_identical_commands_limitation;
    Alcotest.test_case "load property text" `Quick test_load;
    Alcotest.test_case "load salvages good lines" `Quick test_load_salvages_good_lines;
    Alcotest.test_case "hostile swmhints input" `Quick test_args_hostile;
    Alcotest.test_case "places file" `Quick test_places_file;
    Alcotest.test_case "places checksum" `Quick test_places_checksum;
    Alcotest.test_case "places truncated read" `Quick test_places_truncated;
    Alcotest.test_case "atomic write" `Quick test_write_atomic;
    Alcotest.test_case "custom remote format" `Quick test_custom_remote_format;
    QCheck_alcotest.to_alcotest prop_roundtrip;
  ]

module Xrdb = Swm_xrdb.Xrdb

let check = Alcotest.check

let db_of entries =
  let db = Xrdb.create () in
  List.iter (fun (k, v) -> Xrdb.put db k v) entries;
  db

let q db names classes = Xrdb.query db ~names ~classes

let test_exact_match () =
  let db = db_of [ ("swm.color.screen0.panner", "true") ] in
  check (Alcotest.option Alcotest.string) "exact" (Some "true")
    (q db [ "swm"; "color"; "screen0"; "panner" ] [ "Swm"; "Color"; "Screen"; "Panner" ])

let test_loose_binding_skips () =
  let db = db_of [ ("swm*panner", "yes") ] in
  check (Alcotest.option Alcotest.string) "skips middle components" (Some "yes")
    (q db [ "swm"; "color"; "screen0"; "panner" ] [ "Swm"; "Color"; "Screen"; "Panner" ])

let test_tight_requires_adjacent () =
  let db = db_of [ ("swm.panner", "no") ] in
  check (Alcotest.option Alcotest.string) "tight cannot skip" None
    (q db [ "swm"; "color"; "screen0"; "panner" ] [ "Swm"; "Color"; "Screen"; "Panner" ])

let test_class_match () =
  let db = db_of [ ("Swm*Panner", "via-class") ] in
  check (Alcotest.option Alcotest.string) "class components" (Some "via-class")
    (q db [ "swm"; "color"; "screen0"; "panner" ] [ "Swm"; "Color"; "Screen"; "Panner" ])

let test_name_beats_class () =
  let db = db_of [ ("Swm*decoration", "classy"); ("swm*decoration", "namy") ] in
  check (Alcotest.option Alcotest.string) "lowercase swm (name) wins" (Some "namy")
    (q db [ "swm"; "color"; "screen0"; "decoration" ]
       [ "Swm"; "Color"; "Screen"; "Decoration" ])

let test_earlier_component_dominates () =
  (* A name match at the client level beats a class match there, even when
     the class entry has tighter bindings afterwards. *)
  let db =
    db_of
      [ ("swm*xclock*decoration", "by-instance"); ("swm*XClock.decoration", "by-class") ]
  in
  (* names has instance at the same level where classes has XClock *)
  check (Alcotest.option Alcotest.string) "instance (name) match wins"
    (Some "by-instance")
    (q db
       [ "swm"; "color"; "screen0"; "xclock"; "decoration" ]
       [ "Swm"; "Color"; "Screen"; "XClock"; "Decoration" ])

let test_single_wild () =
  let db = db_of [ ("swm.?.screen0.panner", "wild") ] in
  check (Alcotest.option Alcotest.string) "? consumes one level" (Some "wild")
    (q db [ "swm"; "color"; "screen0"; "panner" ] [ "Swm"; "Color"; "Screen"; "Panner" ]);
  check (Alcotest.option Alcotest.string) "? cannot consume two" None
    (q db
       [ "swm"; "color"; "extra"; "screen0"; "panner" ]
       [ "Swm"; "Color"; "Extra"; "Screen"; "Panner" ])

let test_wild_below_class () =
  let db = db_of [ ("swm.?.screen0.panner", "wild"); ("swm.Color.screen0.panner", "classy") ] in
  check (Alcotest.option Alcotest.string) "class beats ?" (Some "classy")
    (q db [ "swm"; "color"; "screen0"; "panner" ] [ "Swm"; "Color"; "Screen"; "Panner" ])

let test_match_beats_skip () =
  let db = db_of [ ("swm*screen0.panner", "matched"); ("swm*panner", "skipped") ] in
  check (Alcotest.option Alcotest.string) "consuming a level beats skipping it"
    (Some "matched")
    (q db [ "swm"; "color"; "screen0"; "panner" ] [ "Swm"; "Color"; "Screen"; "Panner" ])

let test_last_entry_wins_on_tie () =
  let db = db_of [ ("swm*panner", "first"); ("swm*panner", "override") ] in
  check (Alcotest.option Alcotest.string) "same key overridden" (Some "override")
    (q db [ "swm"; "color"; "screen0"; "panner" ] [ "Swm"; "Color"; "Screen"; "Panner" ]);
  check Alcotest.int "no duplicate entry" 1 (Xrdb.size db)

let test_no_match () =
  let db = db_of [ ("swm*panner", "x") ] in
  check (Alcotest.option Alcotest.string) "different resource" None
    (q db [ "swm"; "color"; "screen0"; "decoration" ]
       [ "Swm"; "Color"; "Screen"; "Decoration" ])

let test_trailing_component_required () =
  let db = db_of [ ("swm*panner.scale", "24") ] in
  check (Alcotest.option Alcotest.string) "entry longer than query" None
    (q db [ "swm"; "color"; "screen0"; "panner" ] [ "Swm"; "Color"; "Screen"; "Panner" ])

(* -------- file loading -------- *)

let test_load_string () =
  let db = Xrdb.create () in
  let text =
    {|
! comment line
swm*panner: true
Swm*panel.openLook: \
    button pulldown +0+0 \
    button name +C+0
swm.color.screen0.xclock.xclock.decoration: noTitlePanel
|}
  in
  (match Xrdb.load_string db text with
  | Ok n -> check Alcotest.int "loaded" 3 n
  | Error msg -> Alcotest.fail msg);
  (* The continuation must join into a single value. *)
  match
    q db
      [ "swm"; "color"; "screen0"; "panel"; "openLook" ]
      [ "Swm"; "Color"; "Screen"; "Panel"; "OpenLook" ]
  with
  | Some v ->
      check Alcotest.bool "joined continuation" true
        (String.length v > 20
        && String.index_opt v '\\' = None
        && String.index_opt v '\n' = None)
  | None -> Alcotest.fail "panel definition missing"

let test_load_newline_escape () =
  let db = Xrdb.create () in
  (match Xrdb.load_string db {|foo*bindings: a\nb|} with
  | Ok 1 -> ()
  | Ok n -> Alcotest.failf "expected 1, got %d" n
  | Error msg -> Alcotest.fail msg);
  match q db [ "foo"; "bindings" ] [ "Foo"; "Bindings" ] with
  | Some v -> check Alcotest.string "newline unescaped" "a\nb" v
  | None -> Alcotest.fail "missing"

let test_load_error () =
  let db = Xrdb.create () in
  match Xrdb.load_string db "this has no colon" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error _ -> ()

let test_merge () =
  let a = db_of [ ("swm*x", "1"); ("swm*y", "2") ] in
  let b = db_of [ ("swm*y", "3"); ("swm*z", "4") ] in
  Xrdb.merge ~into:a b;
  check Alcotest.int "size" 3 (Xrdb.size a);
  check (Alcotest.option Alcotest.string) "override" (Some "3")
    (q a [ "swm"; "y" ] [ "Swm"; "Y" ])

let test_key_roundtrip () =
  (* A run of '.' and '*' with a '*' in it prints back as one '*'. *)
  List.iter
    (fun (s, printed) ->
      match Xrdb.parse_key s with
      | Ok key -> check Alcotest.string ("roundtrip " ^ s) printed (Xrdb.key_to_string key)
      | Error msg -> Alcotest.failf "parse %S: %s" s msg)
    [ ("swm.color.screen0.panner", "swm.color.screen0.panner");
      ("swm*panner", "swm*panner"); ("*panner", "*panner");
      ("Swm*panel.openLook", "Swm*panel.openLook");
      ("swm.?.screen0.x", "swm.?.screen0.x");
      ("swm*.decoration", "swm*decoration"); ("*.foo", "*foo"); ("a*.*b", "a*b") ];
  let db = Xrdb.create () in
  (match Xrdb.load_string db "swm*.decoration: openLook\n" with
  | Ok 1 -> ()
  | Ok n -> Alcotest.failf "expected 1 entry, got %d" n
  | Error msg -> Alcotest.fail msg);
  check (Alcotest.option Alcotest.string) "'*.' is a loose binding" (Some "openLook")
    (q db [ "swm"; "color"; "screen0"; "decoration" ]
       [ "Swm"; "Color"; "Screen"; "Decoration" ])

let test_key_errors () =
  List.iter
    (fun bad ->
      match Xrdb.parse_key bad with
      | Ok _ -> Alcotest.failf "expected %S to fail" bad
      | Error _ -> ())
    [ ""; "."; "a."; ".a"; "a..b"; "a b" ]

let test_typed_queries () =
  let db = db_of [ ("swm*flag", "True"); ("swm*count", " 42 "); ("swm*junk", "zzz") ] in
  check (Alcotest.option Alcotest.bool) "bool" (Some true)
    (Xrdb.query_bool db ~names:[ "swm"; "flag" ] ~classes:[ "Swm"; "Flag" ]);
  check (Alcotest.option Alcotest.int) "int" (Some 42)
    (Xrdb.query_int db ~names:[ "swm"; "count" ] ~classes:[ "Swm"; "Count" ]);
  check (Alcotest.option Alcotest.int) "junk int" None
    (Xrdb.query_int db ~names:[ "swm"; "junk" ] ~classes:[ "Swm"; "Junk" ])

let test_to_string_reload () =
  let db =
    db_of [ ("swm*panner", "true"); ("swm.color.screen0.x", "multi\nline") ]
  in
  let text = Xrdb.to_string db in
  let db2 = Xrdb.create () in
  (match Xrdb.load_string db2 text with
  | Ok 2 -> ()
  | Ok n -> Alcotest.failf "expected 2 entries, got %d" n
  | Error msg -> Alcotest.fail msg);
  check (Alcotest.option Alcotest.string) "value preserved" (Some "multi\nline")
    (q db2 [ "swm"; "color"; "screen0"; "x" ] [ "Swm"; "Color"; "Screen"; "X" ])

(* -------- cpp preprocessing -------- *)

let test_cpp_define_substitution () =
  let db = Xrdb.create () in
  let text = {|
#define TITLEBG gray80
swm*button.name.background: TITLEBG
swm*notme: XTITLEBGX
|} in
  (match Xrdb.load_string_cpp db text with
  | Ok 2 -> ()
  | Ok n -> Alcotest.failf "expected 2, got %d" n
  | Error msg -> Alcotest.fail msg);
  check (Alcotest.option Alcotest.string) "substituted" (Some "gray80")
    (q db [ "swm"; "button"; "name"; "background" ]
       [ "Swm"; "Button"; "Name"; "Background" ]);
  check (Alcotest.option Alcotest.string) "whole words only" (Some "XTITLEBGX")
    (q db [ "swm"; "notme" ] [ "Swm"; "Notme" ])

let test_cpp_ifdef () =
  let text =
    {|
#ifdef COLOR
swm*mode: colorful
#else
swm*mode: plain
#endif
#ifndef COLOR
swm*extra: mono-only
#endif
|}
  in
  let query_mode defines =
    let db = Xrdb.create () in
    (match Xrdb.load_string_cpp ~defines db text with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg);
    ( q db [ "swm"; "mode" ] [ "Swm"; "Mode" ],
      q db [ "swm"; "extra" ] [ "Swm"; "Extra" ] )
  in
  let mode, extra = query_mode [ ("COLOR", "1") ] in
  check (Alcotest.option Alcotest.string) "colour branch" (Some "colorful") mode;
  check (Alcotest.option Alcotest.string) "ifndef skipped" None extra;
  let mode, extra = query_mode [] in
  check (Alcotest.option Alcotest.string) "else branch" (Some "plain") mode;
  check (Alcotest.option Alcotest.string) "ifndef taken" (Some "mono-only") extra

let test_cpp_nested_ifdef () =
  let text =
    {|
#ifdef A
#ifdef B
swm*x: ab
#else
swm*x: a
#endif
#endif
|}
  in
  let value defines =
    let db = Xrdb.create () in
    (match Xrdb.load_string_cpp ~defines db text with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg);
    q db [ "swm"; "x" ] [ "Swm"; "X" ]
  in
  check (Alcotest.option Alcotest.string) "both" (Some "ab")
    (value [ ("A", ""); ("B", "") ]);
  check (Alcotest.option Alcotest.string) "only A" (Some "a") (value [ ("A", "") ]);
  check (Alcotest.option Alcotest.string) "neither" None (value [])

let test_cpp_include () =
  let files = [ ("openlook.ad", "swm*decoration: openLook\n") ] in
  let loader path = List.assoc_opt path files in
  let db = Xrdb.create () in
  let text = "#include \"openlook.ad\"\nswm*decoration: mine\n" in
  (match Xrdb.load_string_cpp ~loader db text with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  (* User lines after the include override the template (paper §3). *)
  check (Alcotest.option Alcotest.string) "override after include" (Some "mine")
    (q db [ "swm"; "decoration" ] [ "Swm"; "Decoration" ])

let test_cpp_errors () =
  List.iter
    (fun text ->
      match Xrdb.preprocess text with
      | Ok _ -> Alcotest.failf "expected %S to fail" text
      | Error _ -> ())
    [
      "#include \"nope.ad\"\n";
      "#ifdef X\n";
      "#endif\n";
      "#else\n";
    ]

(* Property: a query never returns a value whose key cannot match at all
   (oracle: brute-force matcher). *)
let component_gen = QCheck2.Gen.oneofl [ "a"; "b"; "c"; "A"; "B" ]

let key_gen =
  QCheck2.Gen.(
    list_size (int_range 1 4)
      (pair (oneofl [ "."; "*" ]) component_gen))

let key_string_of parts =
  String.concat ""
    (List.mapi
       (fun i (b, c) -> if i = 0 then (if b = "*" then "*" ^ c else c) else b ^ c)
       parts)

let prop_query_sound =
  QCheck2.Test.make ~name:"query result comes from some matching entry" ~count:300
    QCheck2.Gen.(pair (list_size (int_range 1 6) (pair key_gen component_gen))
                   (list_size (int_range 1 4) component_gen))
    (fun (entries, names) ->
      let db = Xrdb.create () in
      List.iteri
        (fun i (k, _) -> Xrdb.put db (key_string_of k) (string_of_int i))
        entries;
      let classes = List.map String.capitalize_ascii names in
      match Xrdb.query db ~names ~classes with
      | None -> true
      | Some v -> (
          match int_of_string_opt v with
          | None -> false
          | Some i -> i >= 0 && i < List.length entries))

(* -------- the query memo -------- *)

(* Differential property: through random interleavings of every mutation
   and repeated queries, the memoised [query] answers what the reference
   [scan] answers, on every database involved, copies included.  The small
   alphabet makes keys repeat and [None] answers common. *)
type op =
  | Put of int * string * string
  | Put_key of int * string * string
  | Remove of int * string
  | Merge of int * int
  | Load of int * string
  | Copy of int
  | Query of int * string list

let show_op = function
  | Put (d, k, v) -> Printf.sprintf "put %d %s=%s" d k v
  | Put_key (d, k, v) -> Printf.sprintf "put_key %d %s=%s" d k v
  | Remove (d, k) -> Printf.sprintf "remove %d %s" d k
  | Merge (d, e) -> Printf.sprintf "merge into %d from %d" d e
  | Load (d, text) -> Printf.sprintf "load %d %S" d text
  | Copy d -> Printf.sprintf "copy %d" d
  | Query (d, names) -> Printf.sprintf "query %d %s" d (String.concat "." names)

let names_gen = QCheck2.Gen.(list_size (int_range 1 3) (oneofl [ "a"; "b"; "c" ]))

let op_gen =
  QCheck2.Gen.(
    let db = int_range 0 3 in
    let spec = map key_string_of key_gen in
    let value = oneofl [ "0"; "1"; "2" ] in
    frequency
      [
        (3, map3 (fun d k v -> Put (d, k, v)) db spec value);
        (2, map3 (fun d k v -> Put_key (d, k, v)) db spec value);
        (2, map2 (fun d k -> Remove (d, k)) db spec);
        (1, map2 (fun d e -> Merge (d, e)) db db);
        ( 1,
          map2
            (fun d lines -> Load (d, String.concat "\n" lines))
            db
            (list_size (int_range 1 3) (map2 (fun k v -> k ^ ": " ^ v) spec value)) );
        (1, map (fun d -> Copy d) db);
        (6, map2 (fun d names -> Query (d, names)) db names_gen);
      ])

(* Every query of one to two levels over the alphabet. *)
let probes =
  let comps = [ "a"; "b"; "c" ] in
  List.map (fun c -> [ c ]) comps
  @ List.concat_map (fun c -> List.map (fun d -> [ c; d ]) comps) comps

let prop_memo_matches_scan =
  QCheck2.Test.make ~name:"memoised query equals the reference scan" ~count:300
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    QCheck2.Gen.(list_size (int_range 1 25) op_gen)
    (fun ops ->
      let dbs = ref [| Xrdb.create () |] in
      let get i = !dbs.(i mod Array.length !dbs) in
      let agrees db names =
        let classes = List.map String.capitalize_ascii names in
        Xrdb.query db ~names ~classes = Xrdb.scan db ~names ~classes
      in
      let key spec = Result.get_ok (Xrdb.parse_key spec) in
      let step = function
        | Put (d, k, v) -> Xrdb.put (get d) k v; true
        | Put_key (d, k, v) -> Xrdb.put_key (get d) (key k) v; true
        | Remove (d, k) -> Xrdb.remove (get d) (key k); true
        | Merge (d, e) -> Xrdb.merge ~into:(get d) (get e); true
        | Load (d, text) -> Result.is_ok (Xrdb.load_string (get d) text)
        | Copy d -> dbs := Array.append !dbs [| Xrdb.copy (get d) |]; true
        | Query (d, names) -> agrees (get d) names
      in
      List.for_all
        (fun op ->
          step op && Array.for_all (fun db -> List.for_all (agrees db) probes) !dbs)
        ops)

let test_memo_bounded () =
  let db = db_of [ ("swm*decoration", "openLook") ] in
  for i = 1 to 10_000 do
    let name = Printf.sprintf "client%d" i in
    ignore (q db [ "swm"; name; "decoration" ] [ "Swm"; "Client"; "Decoration" ]);
    if Xrdb.memo_size db > Xrdb.memo_capacity then
      Alcotest.failf "memo holds %d answers after %d queries, capacity %d"
        (Xrdb.memo_size db) i Xrdb.memo_capacity
  done;
  check Alcotest.int "every query was distinct, so every one scanned" 10_000
    (Xrdb.scans db);
  ignore (q db [ "swm"; "client10000"; "decoration" ] [ "Swm"; "Client"; "Decoration" ]);
  check Alcotest.int "a repeated query is a memo hit" 10_000 (Xrdb.scans db)

let suite =
  [
    Alcotest.test_case "exact tight match" `Quick test_exact_match;
    Alcotest.test_case "loose binding skips levels" `Quick test_loose_binding_skips;
    Alcotest.test_case "tight binding cannot skip" `Quick test_tight_requires_adjacent;
    Alcotest.test_case "class components match" `Quick test_class_match;
    Alcotest.test_case "name beats class (swm vs Swm)" `Quick test_name_beats_class;
    Alcotest.test_case "earlier level dominates" `Quick test_earlier_component_dominates;
    Alcotest.test_case "? single wildcard" `Quick test_single_wild;
    Alcotest.test_case "class beats ?" `Quick test_wild_below_class;
    Alcotest.test_case "match beats skip" `Quick test_match_beats_skip;
    Alcotest.test_case "same key overrides" `Quick test_last_entry_wins_on_tie;
    Alcotest.test_case "no match" `Quick test_no_match;
    Alcotest.test_case "longer entry cannot match" `Quick test_trailing_component_required;
    Alcotest.test_case "load resource text" `Quick test_load_string;
    Alcotest.test_case "backslash-n escape" `Quick test_load_newline_escape;
    Alcotest.test_case "load error reported" `Quick test_load_error;
    Alcotest.test_case "merge databases" `Quick test_merge;
    Alcotest.test_case "key to_string roundtrip" `Quick test_key_roundtrip;
    Alcotest.test_case "key parse errors" `Quick test_key_errors;
    Alcotest.test_case "typed queries" `Quick test_typed_queries;
    Alcotest.test_case "serialise and reload" `Quick test_to_string_reload;
    Alcotest.test_case "cpp: #define substitution" `Quick test_cpp_define_substitution;
    Alcotest.test_case "cpp: #ifdef/#else" `Quick test_cpp_ifdef;
    Alcotest.test_case "cpp: nested #ifdef" `Quick test_cpp_nested_ifdef;
    Alcotest.test_case "cpp: #include" `Quick test_cpp_include;
    Alcotest.test_case "cpp: errors" `Quick test_cpp_errors;
    QCheck_alcotest.to_alcotest prop_query_sound;
    QCheck_alcotest.to_alcotest prop_memo_matches_scan;
    Alcotest.test_case "memo stays within its capacity" `Quick test_memo_bounded;
  ]

type binding = Tight | Loose
type component = Name of string | Single_wild
type key = (binding * component) list

module Memo = Hashtbl.Make (String)

type t = {
  mutable items : (key * string) list;
  memo : string option Memo.t;
  mutable mentioned : unit Memo.t option;
  key_buf : Buffer.t;
  mutable queries : int;
  mutable scans : int;
}
(* Later entries shadow earlier ones with the same key; a scan visits all and
   resolves by Xrm precedence.  [memo] holds the answers of earlier scans,
   [None] included, keyed by [memo_key].  It is emptied by every change to
   [items] and when it reaches [memo_capacity]: client instance names and
   swmcmd-supplied menu and function names make the key space unbounded.
   [mentioned] is every [Name] component of [items], dropped by every change
   and rebuilt by the next [mentions]. *)

let memo_capacity = 512

(* Bumped by every change to any database's entries. *)
let generation_counter = ref 0
let generation () = !generation_counter

let create () =
  {
    items = [];
    memo = Memo.create 64;
    mentioned = None;
    key_buf = Buffer.create 64;
    queries = 0;
    scans = 0;
  }

let copy db = { (create ()) with items = db.items }
let size db = List.length db.items

(* -------- key parsing -------- *)

let component_ok s =
  s <> ""
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> true | _ -> false)
       s

let parse_key spec =
  let n = String.length spec in
  let rec loop i binding acc =
    if i >= n then
      if binding = None then Ok (List.rev acc)
      else Error (Printf.sprintf "trailing binding in %S" spec)
    else
      match spec.[i] with
      | '.' | '*' -> (
          (* A run of '.' and '*' containing a '*' is one loose binding, as
             in Xrm.  A leading '.' and '..' are errors. *)
          match (binding, spec.[i]) with
          | None, '.' when acc = [] ->
              Error (Printf.sprintf "misplaced '.' in %S" spec)
          | Some Tight, '.' -> Error (Printf.sprintf "misplaced '.' in %S" spec)
          | Some Loose, _ | _, '*' -> loop (i + 1) (Some Loose) acc
          | _ -> loop (i + 1) (Some Tight) acc)
      | '?' ->
          let b = Option.value binding ~default:Tight in
          loop (i + 1) None ((b, Single_wild) :: acc)
      | _ ->
          let j = ref i in
          while
            !j < n
            && match spec.[!j] with '.' | '*' | '?' -> false | _ -> true
          do
            incr j
          done;
          let name = String.sub spec i (!j - i) in
          if not (component_ok name) then
            Error (Printf.sprintf "bad component %S in %S" name spec)
          else begin
            let b = Option.value binding ~default:Tight in
            loop !j None ((b, Name name) :: acc)
          end
  in
  match loop 0 None [] with
  | Ok [] -> Error "empty resource specifier"
  | result -> result

let key_to_string key =
  let buf = Buffer.create 32 in
  List.iteri
    (fun i (binding, comp) ->
      (match (i, binding) with
      | 0, Tight -> ()
      | 0, Loose -> Buffer.add_char buf '*'
      | _, Tight -> Buffer.add_char buf '.'
      | _, Loose -> Buffer.add_char buf '*');
      match comp with
      | Name s -> Buffer.add_string buf s
      | Single_wild -> Buffer.add_char buf '?')
    key;
  Buffer.contents buf

(* Every change to [items] goes through here. *)
let set_items db items =
  db.items <- items;
  Memo.clear db.memo;
  db.mentioned <- None;
  incr generation_counter

let put_key db key value =
  set_items db ((key, value) :: List.filter (fun (k, _) -> k <> key) db.items)

let put db spec value =
  match parse_key spec with
  | Ok key -> put_key db key value
  | Error msg -> invalid_arg ("Xrdb.put: " ^ msg)

let remove db key = set_items db (List.filter (fun (k, _) -> k <> key) db.items)

let merge ~into db = List.iter (fun (k, v) -> put_key into k v) (List.rev db.items)
let entries db = db.items

(* -------- file syntax -------- *)

(* Splice physical lines: a backslash immediately before the newline joins
   the next line (its leading blanks dropped, as swm's template files are
   written with indented continuations). *)
let logical_lines text =
  let raw = String.split_on_char '\n' text in
  let rec loop acc current = function
    | [] -> List.rev (if current = "" then acc else current :: acc)
    | line :: rest ->
        let joined = if current = "" then line else current ^ " " ^ String.trim line in
        if String.length joined > 0 && joined.[String.length joined - 1] = '\\' then
          loop acc (String.sub joined 0 (String.length joined - 1)) rest
        else loop (joined :: acc) "" rest
  in
  loop [] "" raw

let unescape value =
  let buf = Buffer.create (String.length value) in
  let n = String.length value in
  let rec loop i =
    if i < n then
      if value.[i] = '\\' && i + 1 < n then begin
        (match value.[i + 1] with
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | '\\' -> Buffer.add_char buf '\\'
        | c ->
            Buffer.add_char buf '\\';
            Buffer.add_char buf c);
        loop (i + 2)
      end
      else begin
        Buffer.add_char buf value.[i];
        loop (i + 1)
      end
  in
  loop 0;
  Buffer.contents buf

let load_string db text =
  let count = ref 0 in
  let err = ref None in
  List.iter
    (fun line ->
      if !err = None then begin
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '!' || trimmed.[0] = '#' then ()
        else
          match String.index_opt trimmed ':' with
          | None -> err := Some (Printf.sprintf "missing ':' in %S" trimmed)
          | Some colon ->
              let spec = String.trim (String.sub trimmed 0 colon) in
              let value =
                String.sub trimmed (colon + 1) (String.length trimmed - colon - 1)
              in
              let value =
                (* Only leading whitespace is insignificant. *)
                let k = ref 0 in
                while
                  !k < String.length value && (value.[!k] = ' ' || value.[!k] = '\t')
                do
                  incr k
                done;
                String.sub value !k (String.length value - !k)
              in
              (match parse_key spec with
              | Ok key ->
                  put_key db key (unescape value);
                  incr count
              | Error msg -> err := Some msg)
      end)
    (logical_lines text);
  match !err with Some msg -> Error msg | None -> Ok !count

(* -------- cpp-style preprocessing -------- *)

exception Cpp_error of string

let is_word_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
  | _ -> false

(* Whole-word macro substitution, one pass (like cpp for object-like
   macros without recursion). *)
let substitute defines line =
  if Hashtbl.length defines = 0 then line
  else begin
    let buf = Buffer.create (String.length line) in
    let n = String.length line in
    let i = ref 0 in
    while !i < n do
      if is_word_char line.[!i] then begin
        let start = !i in
        while !i < n && is_word_char line.[!i] do
          incr i
        done;
        let word = String.sub line start (!i - start) in
        match Hashtbl.find_opt defines word with
        | Some value -> Buffer.add_string buf value
        | None -> Buffer.add_string buf word
      end
      else begin
        Buffer.add_char buf line.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  end

let directive line =
  let trimmed = String.trim line in
  if String.length trimmed = 0 || trimmed.[0] <> '#' then None
  else begin
    let rest = String.sub trimmed 1 (String.length trimmed - 1) in
    match
      String.split_on_char ' ' rest
      |> List.concat_map (String.split_on_char '\t')
      |> List.filter (fun w -> w <> "")
    with
    | "include" :: args -> Some (`Include (String.concat " " args))
    | "define" :: name :: value -> Some (`Define (name, String.concat " " value))
    | [ "define" ] -> Some (`Bad "#define needs a name")
    | "undef" :: [ name ] -> Some (`Undef name)
    | "ifdef" :: [ name ] -> Some (`Ifdef name)
    | "ifndef" :: [ name ] -> Some (`Ifndef name)
    | [ "else" ] -> Some `Else
    | [ "endif" ] -> Some `Endif
    | _ -> None (* '#' alone is a comment line in resource files *)
  end

let unquote s =
  let s = String.trim s in
  let n = String.length s in
  if n >= 2 && ((s.[0] = '"' && s.[n - 1] = '"') || (s.[0] = '<' && s.[n - 1] = '>'))
  then String.sub s 1 (n - 2)
  else s

let preprocess ?(defines = []) ?(loader = fun _ -> None) text =
  let macros = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace macros k v) defines;
  let out = Buffer.create (String.length text) in
  (* Conditional stack: each frame is [true] when the current branch is
     live (given that the enclosing frames are live). *)
  let stack = ref [] in
  let live () = List.for_all (fun b -> b) !stack in
  let rec process_text depth text =
    if depth > 16 then raise (Cpp_error "#include nesting too deep");
    List.iter
      (fun line ->
        match directive line with
        | Some (`Include arg) ->
            if live () then begin
              let path = unquote arg in
              match loader path with
              | Some included -> process_text (depth + 1) included
              | None -> raise (Cpp_error (Printf.sprintf "cannot include %S" path))
            end
        | Some (`Define (name, value)) ->
            if live () then Hashtbl.replace macros name value
        | Some (`Undef name) -> if live () then Hashtbl.remove macros name
        | Some (`Ifdef name) -> stack := Hashtbl.mem macros name :: !stack
        | Some (`Ifndef name) -> stack := (not (Hashtbl.mem macros name)) :: !stack
        | Some `Else -> (
            match !stack with
            | top :: rest -> stack := (not top) :: rest
            | [] -> raise (Cpp_error "#else without #ifdef"))
        | Some `Endif -> (
            match !stack with
            | _ :: rest -> stack := rest
            | [] -> raise (Cpp_error "#endif without #ifdef"))
        | Some (`Bad msg) -> if live () then raise (Cpp_error msg)
        | None ->
            if live () then begin
              Buffer.add_string out (substitute macros line);
              Buffer.add_char out '\n'
            end)
      (String.split_on_char '\n' text)
  in
  match process_text 0 text with
  | () ->
      if !stack <> [] then Error "unterminated #ifdef"
      else Ok (Buffer.contents out)
  | exception Cpp_error msg -> Error msg

let load_string_cpp ?defines ?loader db text =
  match preprocess ?defines ?loader text with
  | Ok processed -> load_string db processed
  | Error _ as e -> e

(* -------- matching -------- *)

(* Per-level score: 0 = skipped by a loose binding; otherwise
   base*2 + tight, with base: Single_wild = 1, class match = 2, name
   match = 3.  Lexicographic comparison over levels implements the Xrm
   precedence rules (earlier levels dominate). *)

let rec compare_scores a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: a', y :: b' -> if x <> y then compare x y else compare_scores a' b'

(* Try to match [key] against the query suffix starting at [qi]; returns the
   best score list or None.  At each position, consuming a component beats
   skipping (same prefix, bigger level score), so we only fall back to the
   skip branch when the consume branch fails. *)
let match_key key names classes =
  let k = Array.length names in
  let rec go key qi =
    match (key, qi >= k) with
    | [], true -> Some []
    | [], false -> None
    | _ :: _, true -> None
    | (binding, comp) :: rest, false ->
        let consume =
          let base =
            match comp with
            | Single_wild -> Some 1
            | Name s ->
                if String.equal s names.(qi) then Some 3
                else if String.equal s classes.(qi) then Some 2
                else None
          in
          match base with
          | None -> None
          | Some b ->
              let level = (b * 2) + if binding = Tight then 1 else 0 in
              Option.map (fun tail -> level :: tail) (go rest (qi + 1))
        in
        (match consume with
        | Some _ -> consume
        | None ->
            if binding = Loose then
              Option.map (fun tail -> 0 :: tail) (go key (qi + 1))
            else None)
  in
  go key 0

let scan db ~names ~classes =
  if List.length names <> List.length classes then
    invalid_arg "Xrdb.query: names and classes must have equal length";
  let names = Array.of_list names and classes = Array.of_list classes in
  let best = ref None in
  List.iter
    (fun (key, value) ->
      match match_key key names classes with
      | None -> ()
      | Some score -> (
          match !best with
          | Some (bscore, _) when compare_scores score bscore <= 0 -> ()
          | Some _ | None -> best := Some (score, value)))
    (* Scan oldest-first so that, on equal precedence, the most recently
       added entry wins. *)
    (List.rev db.items);
  Option.map snd !best

(* The memo key: names and classes interleaved, each preceded by its length
   as a base-128 varint, so that two different queries never share a key. *)
let rec add_varint buf n =
  if n < 0x80 then Buffer.add_char buf (Char.unsafe_chr n)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (n land 0x7f)));
    add_varint buf (n lsr 7)
  end

let add_component buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

let rec add_query buf names classes =
  match (names, classes) with
  | [], [] -> ()
  | n :: names, c :: classes ->
      add_component buf n;
      add_component buf c;
      add_query buf names classes
  | _ -> invalid_arg "Xrdb.query: names and classes must have equal length"

let memo_key db names classes =
  Buffer.clear db.key_buf;
  add_query db.key_buf names classes;
  Buffer.contents db.key_buf

let query db ~names ~classes =
  let key = memo_key db names classes in
  db.queries <- db.queries + 1;
  match Memo.find db.memo key with
  | answer -> answer
  | exception Not_found ->
      let answer = scan db ~names ~classes in
      db.scans <- db.scans + 1;
      if Memo.length db.memo >= memo_capacity then Memo.clear db.memo;
      Memo.add db.memo key answer;
      answer

let queries db = db.queries
let scans db = db.scans
let memo_size db = Memo.length db.memo

let mentions db name =
  let names =
    match db.mentioned with
    | Some names -> names
    | None ->
        let names = Memo.create 64 in
        List.iter
          (fun (key, _) ->
            List.iter
              (function _, Name s -> Memo.replace names s () | _, Single_wild -> ())
              key)
          db.items;
        db.mentioned <- Some names;
        names
  in
  Memo.mem names name

let parse_bool v =
  match String.lowercase_ascii (String.trim v) with
  | "true" | "yes" | "on" | "1" -> Some true
  | "false" | "no" | "off" | "0" -> Some false
  | _ -> None

let query_bool db ~names ~classes = Option.bind (query db ~names ~classes) parse_bool

let query_int db ~names ~classes =
  match query db ~names ~classes with
  | None -> None
  | Some v -> int_of_string_opt (String.trim v)

let to_string db =
  let buf = Buffer.create 256 in
  List.iter
    (fun (key, value) ->
      Buffer.add_string buf (key_to_string key);
      Buffer.add_string buf ": ";
      String.iter
        (function
          | '\n' -> Buffer.add_string buf "\\n" | c -> Buffer.add_char buf c)
        value;
      Buffer.add_char buf '\n')
    (List.rev db.items);
  Buffer.contents buf

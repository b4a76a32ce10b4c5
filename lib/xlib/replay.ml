(* Deterministic re-execution of recorded journals.  See replay.mli for
   the op grammar; Server owns the write side (its journal taps), this
   module owns the read side. *)

type expect = Converge | No_crash

type report = {
  reason : string;
  resources : string list;
  screens : (int * int) list;
  ops : string list;
  dropped : int;
  snap : string option;
  expect : expect;
}

let make_report ?(reason = "repro") ?(resources = []) ?(screens = []) ?snap
    ?expect ops =
  let expect =
    match expect with
    | Some e -> e
    | None -> ( match snap with Some _ -> Converge | None -> No_crash)
  in
  { reason; resources; screens; ops; dropped = 0; snap; expect }

type harness = { h_step : unit -> unit; h_snapshot : unit -> string }

type divergence = {
  d_path : string;
  d_expected : string;
  d_got : string;
  d_context : string list;
}

type outcome =
  | Converged of { ops : int; steps : int }
  | No_snapshot of { ops : int; steps : int }
  | Diverged of divergence
  | Crashed of { op_index : int; op : string; error : string }
  | Truncated of { dropped : int }

let ok = function Converged _ | No_snapshot _ -> true | _ -> false

(* -------- report parsing -------- *)

let string_list j =
  match Json.to_list j with
  | Some l -> List.filter_map Json.to_string l
  | None -> []

let screens_of j =
  match Json.to_list j with
  | Some l ->
      List.filter_map
        (fun pair ->
          match Json.to_list pair with
          | Some [ a; b ] -> (
              match (Json.to_int a, Json.to_int b) with
              | Some w, Some h -> Some (w, h)
              | _ -> None)
          | _ -> None)
        l
  | None -> []

let snap_member name obj =
  match Json.member name obj with
  | Some Json.Null | None -> None
  | Some s -> Some (Json.render s)

let parse_report text =
  match Json.parse text with
  | Error e -> Error ("malformed JSON: " ^ e)
  | Ok root -> (
      let reason =
        Option.value ~default:""
          (Option.bind (Json.member "reason" root) Json.to_string)
      in
      let meta_member name =
        Option.bind (Json.member "meta" root) (Json.member name)
      in
      let meta_resources =
        match meta_member "resources" with Some r -> string_list r | None -> []
      in
      let meta_screens =
        match meta_member "screens" with Some s -> screens_of s | None -> []
      in
      match Json.member "journal" root with
      | Some journal -> (
          (* Full crash report: the Recorder.dump_json shape. *)
          match Option.bind (Json.member "ops" journal) Json.to_list with
          | None -> Error "crash report journal has no ops list"
          | Some raw ->
              let ops = List.filter_map Json.to_string raw in
              if List.length ops <> List.length raw then
                Error "journal ops must all be strings"
              else
                let dropped =
                  Option.value ~default:0
                    (Option.bind (Json.member "dropped" journal) Json.to_int)
                in
                let snap = snap_member "snap" journal in
                (* A crash report always intends convergence; when the
                   recorded session never reached a snapshot the replay
                   reports [No_snapshot] rather than silently passing. *)
                Ok
                  {
                    reason;
                    resources = meta_resources;
                    screens = meta_screens;
                    ops;
                    dropped;
                    snap;
                    expect = Converge;
                  })
      | None -> (
          (* Compact repro file. *)
          match Json.member "ops" root with
          | None -> Error "neither a crash report nor a repro file (no ops)"
          | Some o -> (
              match Json.to_list o with
              | None -> Error "repro ops must be a list"
              | Some raw ->
                  let ops = List.filter_map Json.to_string raw in
                  if List.length ops <> List.length raw then
                    Error "repro ops must all be strings"
                  else
                    let snap = snap_member "snap" root in
                    let expect =
                      match
                        Option.bind (Json.member "expect" root) Json.to_string
                      with
                      | Some "no_crash" -> No_crash
                      | Some _ -> Converge
                      | None -> (
                          match snap with Some _ -> Converge | None -> No_crash)
                    in
                    let resources =
                      match Json.member "resources" root with
                      | Some r -> string_list r
                      | None -> meta_resources
                    in
                    let screens =
                      match Json.member "screens" root with
                      | Some s -> screens_of s
                      | None -> meta_screens
                    in
                    Ok { reason; resources; screens; ops; dropped = 0; snap; expect })))

let repro_json r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"repro\":1,\n";
  Buffer.add_string buf
    (Printf.sprintf "\"reason\":%s,\n" (Json.escape r.reason));
  Buffer.add_string buf
    (Printf.sprintf "\"expect\":%s,\n"
       (Json.escape
          (match r.expect with Converge -> "converge" | No_crash -> "no_crash")));
  Buffer.add_string buf "\"resources\":[";
  List.iteri
    (fun i res ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Json.escape res))
    r.resources;
  Buffer.add_string buf "],\n\"screens\":[";
  List.iteri
    (fun i (w, h) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "[%d,%d]" w h))
    r.screens;
  Buffer.add_string buf "],\n\"snap\":";
  Buffer.add_string buf (match r.snap with Some s -> s | None -> "null");
  Buffer.add_string buf ",\n\"ops\":[\n";
  List.iteri
    (fun i op ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (Json.escape op))
    r.ops;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

(* -------- snapshot normalisation and diff -------- *)

(* The recorded snapshot names windows by their ids in the *recorded*
   session; the replay allocates fresh ids.  [remap] translates recorded
   ids (filled in as creates execute); both sides are then sorted so the
   comparison is order-insensitive. *)

let win_of j =
  Option.value ~default:0.0 (Option.bind (Json.member "win" j) Json.to_float)

let compare_num a b =
  match (a, b) with
  | Json.Num x, Json.Num y -> compare x y
  | _ -> compare a b

let rec normalize ~remap (j : Json.t) : Json.t =
  let remap_num f = float_of_int (remap (int_of_float f)) in
  match j with
  | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             let v =
               match (k, v) with
               | "win", Json.Num f -> Json.Num (remap_num f)
               | ("iconic" | "sticky"), Json.List ids ->
                   let ids =
                     List.map
                       (function
                         | Json.Num f -> Json.Num (remap_num f) | x -> x)
                       ids
                   in
                   Json.List (List.sort compare_num ids)
               | "clients", Json.List l ->
                   let l = List.map (normalize ~remap) l in
                   Json.List
                     (List.sort (fun a b -> compare (win_of a) (win_of b)) l)
               | _ -> normalize ~remap v
             in
             (k, v))
           fields)
  | Json.List l -> Json.List (List.map (normalize ~remap) l)
  | x -> x

let join path key = if path = "" then key else path ^ "." ^ key

let rec diff path (a : Json.t) (b : Json.t) =
  match (a, b) with
  | Json.Obj xs, Json.Obj ys ->
      let keys =
        List.map fst xs
        @ List.filter (fun k -> not (List.mem_assoc k xs)) (List.map fst ys)
      in
      List.fold_left
        (fun acc k ->
          match acc with
          | Some _ -> acc
          | None -> (
              match (List.assoc_opt k xs, List.assoc_opt k ys) with
              | Some va, Some vb -> diff (join path k) va vb
              | Some va, None -> Some (join path k, Json.render va, "(missing)")
              | None, Some vb -> Some (join path k, "(missing)", Json.render vb)
              | None, None -> None))
        None keys
  | Json.List xs, Json.List ys ->
      if List.length xs <> List.length ys then
        Some
          ( join path "length",
            string_of_int (List.length xs),
            string_of_int (List.length ys) )
      else
        List.fold_left
          (fun acc (i, (x, y)) ->
            match acc with
            | Some _ -> acc
            | None -> diff (Printf.sprintf "%s[%d]" path i) x y)
          None
          (List.mapi (fun i p -> (i, p)) (List.combine xs ys))
  | _ ->
      if a = b then None else Some (path, Json.render a, Json.render b)

(* -------- op execution -------- *)

let mods_of_bits bits =
  Keysym.mods ~shift:(bits land 1 <> 0) ~control:(bits land 2 <> 0)
    ~meta:(bits land 4 <> 0) ()

let base_name key =
  match String.rindex_opt key '#' with
  | Some i -> String.sub key 0 i
  | None -> key

(* submit_bytes stringifies execution errors; a real client absorbs the
   X errors chaos targets at it, so the replay does too.  Anything else
   (decode failure, Invalid_argument) is a genuine crash. *)
let absorbable msg =
  let prefixed p =
    String.length msg >= String.length p && String.sub msg 0 (String.length p) = p
  in
  prefixed "BadWindow" || prefixed "BadAccess"

(* Recorded wids a frame string creates, in order (pre-scanned so the
   recorded->actual mapping can be registered after the submit). *)
let created_wids bytes =
  let rec loop acc pos =
    if pos >= String.length bytes then List.rev acc
    else
      match Wire.decode_request bytes ~pos with
      | Error _ -> List.rev acc
      | Ok (req, next) -> (
          match req with
          | Wire.Create_window { wid; _ } -> loop (wid :: acc) next
          | _ -> loop acc next)
  in
  loop [] 0

let run report ~make =
  if report.dropped > 0 then Truncated { dropped = report.dropped }
  else
    let server =
      match report.screens with
      | [] -> Server.create ()
      | screens ->
          Server.create
            ~screens:
              (List.map
                 (fun (w, h) -> { Server.size = (w, h); monochrome = false })
                 screens)
            ()
    in
    let harness = make server in
    (* Recorded server ids -> replay server ids, fed by creates as they
       execute.  Root ids are identical on both sides (sequential
       allocation from a fresh server), so they seed as identity. *)
    let idmap : (int, Xid.t) Hashtbl.t = Hashtbl.create 64 in
    for screen = 0 to Server.screen_count server - 1 do
      let root = Server.root server ~screen in
      Hashtbl.replace idmap (Xid.to_int root) root
    done;
    let resolve i =
      match Hashtbl.find_opt idmap i with Some x -> x | None -> Xid.of_int i
    in
    let conns : (string, Wire_conn.t) Hashtbl.t = Hashtbl.create 8 in
    let conn_for key =
      match Hashtbl.find_opt conns key with
      | Some wc -> wc
      | None ->
          let wc = Wire_conn.create server ~name:(base_name key) in
          (* Frames name windows by recorded server ids; seed the roots
             so pre-journal windows (the roots) resolve. *)
          for screen = 0 to Server.screen_count server - 1 do
            let root = Server.root server ~screen in
            Wire_conn.alias wc ~client:root ~server:root
          done;
          Hashtbl.replace conns key wc;
          wc
    in
    let steps = ref 0 in
    let dirty = ref false in
    let replay_snap = ref None in
    let step () =
      harness.h_step ();
      incr steps;
      dirty := false
    in
    let fail msg = failwith msg in
    let int_of s = match int_of_string_opt s with
      | Some i -> i
      | None -> fail (Printf.sprintf "bad integer %S" s)
    in
    let unhex s =
      match Wire.of_hex s with Ok b -> b | Error e -> fail e
    in
    let absorb f = try f () with Server.Bad_window _ | Server.Bad_access _ -> () in
    let remap_value (v : Prop.value) : Prop.value =
      let r id = resolve (Xid.to_int id) in
      match v with
      | Prop.Window w -> Prop.Window (r w)
      | Prop.Wm_hints h ->
          Prop.Wm_hints
            { h with Prop.icon_window = Option.map r h.Prop.icon_window }
      | Prop.Wm_state_value { state; icon } ->
          Prop.Wm_state_value { state; icon = r icon }
      | v -> v
    in
    let apply op =
      match String.split_on_char ' ' op with
      | [ "step" ] -> step ()
      | [ "snap" ] ->
          if !dirty then step ();
          replay_snap := Some (harness.h_snapshot ())
      | [ "frame"; key; hex ] ->
          let bytes = unhex hex in
          let wc = conn_for key in
          let creates = created_wids bytes in
          (match Wire_conn.submit_bytes wc bytes with
          | Ok _ -> ()
          | Error { Wire_conn.error; _ } ->
              if not (absorbable error) then fail error);
          List.iter
            (fun wid ->
              match Wire_conn.resolve wc wid with
              | Some actual -> Hashtbl.replace idmap (Xid.to_int wid) actual
              | None -> ())
            creates;
          dirty := true
      | [ "prop"; key; wid; hexname; hexvalue ] -> (
          let wc = conn_for key in
          let name = unhex hexname in
          match Prop.value_of_text (unhex hexvalue) with
          | None -> fail "undecodable property value"
          | Some v ->
              absorb (fun () ->
                  Server.change_property server (Wire_conn.conn wc)
                    (resolve (int_of wid)) ~name (remap_value v));
              dirty := true)
      | [ "send"; key; dest; hexev ] -> (
          let wc = conn_for key in
          let bytes = unhex hexev in
          match Wire.decode_event bytes ~pos:0 with
          | Error e -> fail e
          | Ok (event, _) ->
              absorb (fun () ->
                  Server.send_event server (Wire_conn.conn wc)
                    ~dest:(resolve (int_of dest)) event);
              dirty := true)
      | [ "destroy"; wid ] ->
          (* Bad_window absorbs (the recorded session's destroy also hit a
             dead window); Invalid_argument does NOT — destroying a root is
             a poisoned op and must crash the replay. *)
          absorb (fun () -> Server.destroy_window server (resolve (int_of wid)));
          dirty := true
      | [ "damage"; wid; x; y; w; h ] ->
          absorb (fun () ->
              Server.damage_window server
                (resolve (int_of wid))
                (Geom.rect (int_of x) (int_of y) (int_of w) (int_of h)));
          dirty := true
      | [ "warp"; screen; x; y ] ->
          Server.warp_pointer server ~screen:(int_of screen)
            (Geom.point (int_of x) (int_of y));
          dirty := true
      | [ "press"; btn; mods ] ->
          Server.press_button server ~mods:(mods_of_bits (int_of mods))
            (int_of btn);
          dirty := true
      | [ "release"; btn; mods ] ->
          Server.release_button server ~mods:(mods_of_bits (int_of mods))
            (int_of btn);
          dirty := true
      | [ "key"; hexsym; mods ] ->
          Server.press_key server ~mods:(mods_of_bits (int_of mods))
            (unhex hexsym);
          dirty := true
      | [ "kill"; key ] ->
          Server.disconnect server (Wire_conn.conn (conn_for key));
          dirty := true
      | [ "stall"; key; state ] ->
          Server.set_stalled (Wire_conn.conn (conn_for key)) (int_of state <> 0);
          dirty := true
      | [ "flood"; key; burst ] ->
          (* A flood fault's storm: re-delivered through the same
             deterministic generator ([Server.flood_conn]), so the replayed
             queue sheds exactly as the recorded session did. *)
          Server.flood_conn server
            (Wire_conn.conn (conn_for key))
            ~burst:(int_of burst);
          dirty := true
      | [ "shapeclear"; wid ] ->
          (* The op carries no connection; any one will do (shape state is
             not owner-scoped). *)
          absorb (fun () ->
              Server.shape_clear server
                (Wire_conn.conn (conn_for "replay#0"))
                (resolve (int_of wid)));
          dirty := true
      | _ -> fail "unknown op"
    in
    let exception Stop of outcome in
    try
      List.iteri
        (fun i op ->
          try apply op with
          | Stop _ as e -> raise e
          | e ->
              let error =
                match e with
                | Failure msg -> msg
                | Invalid_argument msg -> msg
                | Server.Bad_window id ->
                    Format.asprintf "BadWindow %a" Xid.pp id
                | Server.Bad_access msg -> "BadAccess: " ^ msg
                | e -> Printexc.to_string e
              in
              raise (Stop (Crashed { op_index = i; op; error })))
        report.ops;
      if !dirty then step ();
      let nops = List.length report.ops in
      match report.expect with
      | No_crash -> Converged { ops = nops; steps = !steps }
      | Converge -> (
          match report.snap with
          | None -> No_snapshot { ops = nops; steps = !steps }
          | Some recorded -> (
              let got =
                match !replay_snap with
                | Some s -> s
                | None -> harness.h_snapshot ()
              in
              match (Json.parse recorded, Json.parse got) with
              | Error e, _ ->
                  Crashed
                    {
                      op_index = nops;
                      op = "(snapshot)";
                      error = "recorded snapshot unparsable: " ^ e;
                    }
              | _, Error e ->
                  Crashed
                    {
                      op_index = nops;
                      op = "(snapshot)";
                      error = "replay snapshot unparsable: " ^ e;
                    }
              | Ok expected, Ok actual -> (
                  let expected =
                    normalize
                      ~remap:(fun i -> Xid.to_int (resolve i))
                      expected
                  in
                  let actual = normalize ~remap:(fun i -> i) actual in
                  match diff "" expected actual with
                  | None -> Converged { ops = nops; steps = !steps }
                  | Some (d_path, d_expected, d_got) ->
                      let context =
                        let rec last_n n l =
                          let len = List.length l in
                          if len <= n then l
                          else last_n n (List.tl l)
                        in
                        last_n 8 report.ops
                      in
                      Diverged
                        { d_path; d_expected; d_got; d_context = context })))
    with Stop o -> o

(* -------- outcome rendering -------- *)

let outcome_to_string = function
  | Converged { ops; steps } ->
      Printf.sprintf "converged (%d ops, %d steps)" ops steps
  | No_snapshot { ops; steps } ->
      Printf.sprintf "ran clean, no recorded snapshot to compare (%d ops, %d steps)"
        ops steps
  | Diverged d ->
      Printf.sprintf "diverged at %s: recorded %s, replayed %s" d.d_path
        d.d_expected d.d_got
  | Crashed { op_index; op; error } ->
      Printf.sprintf "crashed at op %d (%s): %s" op_index op error
  | Truncated { dropped } ->
      Printf.sprintf "journal truncated (%d ops lost): convergence unassertable"
        dropped

let outcome_json = function
  | Converged { ops; steps } ->
      Printf.sprintf "{\"outcome\":\"converged\",\"ops\":%d,\"steps\":%d}" ops
        steps
  | No_snapshot { ops; steps } ->
      Printf.sprintf "{\"outcome\":\"no_snapshot\",\"ops\":%d,\"steps\":%d}" ops
        steps
  | Diverged d ->
      Printf.sprintf
        "{\"outcome\":\"diverged\",\"path\":%s,\"expected\":%s,\"got\":%s,\"context\":[%s]}"
        (Json.escape d.d_path) (Json.escape d.d_expected) (Json.escape d.d_got)
        (String.concat "," (List.map Json.escape d.d_context))
  | Crashed { op_index; op; error } ->
      Printf.sprintf
        "{\"outcome\":\"crashed\",\"op_index\":%d,\"op\":%s,\"error\":%s}"
        op_index (Json.escape op) (Json.escape error)
  | Truncated { dropped } ->
      Printf.sprintf "{\"outcome\":\"truncated\",\"dropped\":%d}" dropped

(* -------- delta debugging (ddmin) -------- *)

let split_chunks arr n =
  let len = Array.length arr in
  List.filter
    (fun c -> c <> [])
    (List.init n (fun i ->
         let lo = i * len / n and hi = (i + 1) * len / n in
         Array.to_list (Array.sub arr lo (hi - lo))))

let complement chunks i =
  List.concat (List.filteri (fun j _ -> j <> i) chunks)

let minimize ~ops ~fails =
  let tests = ref 0 in
  let test l =
    incr tests;
    fails l
  in
  if not (test ops) then (ops, !tests)
  else begin
    let rec go ops n =
      let len = List.length ops in
      if len <= 1 then ops
      else begin
        let chunks = split_chunks (Array.of_list ops) n in
        match List.find_opt (fun c -> List.length c < len && test c) chunks with
        | Some chunk -> go chunk 2
        | None -> (
            match
              List.find_opt
                (fun c -> List.length c < len && test c)
                (List.mapi (fun i _ -> complement chunks i) chunks)
            with
            | Some rest -> go rest (max (n - 1) 2)
            | None -> if n < len then go ops (min (2 * n) len) else ops)
      end
    in
    let minimized = go ops 2 in
    (minimized, !tests)
  end

type entry = {
  ts_ns : int;
  kind : string;
  what : string;
  attrs : (string * string) list;
}

type t = {
  mutable on : bool;
  ring : entry Ring.t;
  mutable epoch : int;
  mutable snapshot_source : (unit -> string) option;
  mutable dump_path : string option;
  mutable dumps : int;
  mutable dump_errors : int;
  (* The replay journal: a second ring holding the session's *inputs*
     (encoded wire frames, device synthesis, fault effects, step markers)
     rather than its activity.  Ops are opaque strings here; {!Replay}
     owns the grammar.  Kept separate from the entry ring because entries
     are diagnostics (droppable) while a journal with any drop can no
     longer replay from a fresh server. *)
  journal : string Ring.t;
  mutable j_meta : string option; (* session setup, JSON text *)
  mutable j_snap : string option; (* snapshot at the last [snap] op *)
}

let create ?(capacity = 512) ?(journal_capacity = 8192) () =
  {
    on = false;
    ring = Ring.bounded capacity;
    epoch = Metrics.now_mono_ns ();
    snapshot_source = None;
    dump_path = None;
    dumps = 0;
    dump_errors = 0;
    journal = Ring.bounded journal_capacity;
    j_meta = None;
    j_snap = None;
  }

let capacity t = Ring.capacity t.ring
let enabled t = t.on

let start t =
  Ring.clear t.ring;
  Ring.clear t.journal;
  t.j_snap <- None;
  t.epoch <- Metrics.now_mono_ns ();
  t.on <- true

let stop t = t.on <- false

let set_snapshot_source t f = t.snapshot_source <- Some f

let record t ~kind ?(attrs = []) what =
  if t.on then
    Ring.push t.ring { ts_ns = Metrics.now_mono_ns () - t.epoch; kind; what; attrs }

let entries t = Ring.to_list t.ring
let recorded t = Ring.length t.ring + Ring.evicted t.ring
let dropped t = Ring.evicted t.ring

(* -------- the replay journal -------- *)

let record_op t op = if t.on then Ring.push t.journal op
let journal_ops t = Ring.to_list t.journal
let journal_capacity t = Ring.capacity t.journal
let journal_recorded t = Ring.length t.journal + Ring.evicted t.journal
let journal_dropped t = Ring.evicted t.journal
let set_meta t json = t.j_meta <- Some json
let meta t = t.j_meta

let journal_snapshot t json =
  if t.on then begin
    record_op t "snap";
    t.j_snap <- Some json
  end

let arm_dump t ~path = t.dump_path <- Some path
let dumps t = t.dumps

(* -------- the crash report -------- *)

let entry_json e =
  Printf.sprintf "{\"ts_ns\":%d,\"kind\":%s,\"what\":%s,\"attrs\":%s}" e.ts_ns
    (Metrics.json_string e.kind)
    (Metrics.json_string e.what)
    (Tracing.attrs_json e.attrs)

let dump_json t ~reason ~metrics ~tracer =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf ("\"reason\":" ^ Metrics.json_string reason ^ ",\n");
  Buffer.add_string buf
    (Printf.sprintf "\"dumped_at_ns\":%d,\n" (Metrics.now_mono_ns () - t.epoch));
  Buffer.add_string buf
    (Printf.sprintf
       "\"recorder\":{\"capacity\":%d,\"recorded\":%d,\"dropped\":%d,\"entries\":[\n"
       (capacity t) (recorded t) (dropped t));
  let first = ref true in
  List.iter
    (fun e ->
      if not !first then Buffer.add_string buf ",\n";
      first := false;
      Buffer.add_string buf (entry_json e))
    (entries t);
  Buffer.add_string buf "\n]},\n";
  (* The snapshot is taken now, as fresh as the failure; the ring already
     holds the history. *)
  Buffer.add_string buf
    (Printf.sprintf "\"snapshot\":%s,\n"
       (match t.snapshot_source with Some source -> source () | None -> "null"));
  Buffer.add_string buf ("\"metrics\":" ^ Metrics.to_json metrics ^ ",\n");
  (match t.j_meta with
  | Some json -> Buffer.add_string buf ("\"meta\":" ^ json ^ ",\n")
  | None -> Buffer.add_string buf "\"meta\":null,\n");
  Buffer.add_string buf
    (Printf.sprintf
       "\"journal\":{\"capacity\":%d,\"recorded\":%d,\"dropped\":%d,\"snap\":%s,\"ops\":[\n"
       (journal_capacity t) (journal_recorded t) (journal_dropped t)
       (match t.j_snap with Some json -> json | None -> "null"));
  let first_op = ref true in
  List.iter
    (fun op ->
      if not !first_op then Buffer.add_string buf ",\n";
      first_op := false;
      Buffer.add_string buf (Metrics.json_string op))
    (journal_ops t);
  Buffer.add_string buf "\n]},\n";
  Buffer.add_string buf ("\"slowlog\":" ^ Tracing.slow_log_json tracer ^ "\n");
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* A crash mid-write must never leave a half-written file where a whole
   one used to be. *)
let write_atomic ~path content =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc content);
  Sys.rename tmp path

let crash t ~reason ~metrics ~tracer =
  if t.on then begin
    Metrics.incr (Metrics.counter metrics "recorder.crashes");
    match t.dump_path with
    | None -> ()
    | Some path -> (
        match write_atomic ~path (dump_json t ~reason ~metrics ~tracer) with
        | () ->
            t.dumps <- t.dumps + 1;
            Metrics.incr (Metrics.counter metrics "recorder.crash_dumps")
        | exception _ ->
            t.dump_errors <- t.dump_errors + 1;
            Metrics.incr (Metrics.counter metrics "recorder.dump_errors"))
  end

(* Continuous profiling: GC/allocation telemetry around the dispatch and
   wire paths, plus an aggregated call tree built live from the tracer's
   span sink and exported as collapsed-stack (flamegraph) text. *)

type node = {
  mutable nd_count : int;
  mutable nd_total_ns : int;
  mutable nd_alloc_w : float;
  nd_children : (string, node) Hashtbl.t;
}

let new_node () =
  { nd_count = 0; nd_total_ns = 0; nd_alloc_w = 0.; nd_children = Hashtbl.create 4 }

type t = {
  p_metrics : Metrics.t;
  p_tracer : Tracing.t;
  mutable p_armed : bool;
  mutable p_tracer_was_on : bool;
  p_root : node; (* virtual root; its children are the top-level frames *)
  mutable p_dispatch_wall_ns : int;
  mutable p_events : int;
  h_minor_per_event : Metrics.histogram;
  c_promoted : Metrics.counter;
  c_minor_coll : Metrics.counter;
  c_major_coll : Metrics.counter;
}

let create ~metrics ~tracer () =
  {
    p_metrics = metrics;
    p_tracer = tracer;
    p_armed = false;
    p_tracer_was_on = false;
    p_root = new_node ();
    p_dispatch_wall_ns = 0;
    p_events = 0;
    h_minor_per_event = Metrics.histogram metrics "gc.minor_words_per_event";
    c_promoted = Metrics.counter metrics "gc.promoted_words";
    c_minor_coll = Metrics.counter metrics "gc.minor_collections";
    c_major_coll = Metrics.counter metrics "gc.major_collections";
  }

let armed p = p.p_armed
let events p = p.p_events
let dispatch_wall_ns p = p.p_dispatch_wall_ns

let node_child n name =
  match Hashtbl.find_opt n.nd_children name with
  | Some c -> c
  | None ->
      let c = new_node () in
      Hashtbl.replace n.nd_children name c;
      c

let record p name ancestry dur alloc =
  let n = List.fold_left node_child p.p_root ancestry in
  let n = node_child n name in
  n.nd_count <- n.nd_count + 1;
  n.nd_total_ns <- n.nd_total_ns + max 0 dur;
  n.nd_alloc_w <- n.nd_alloc_w +. Float.max 0. alloc

let clear p =
  Hashtbl.reset p.p_root.nd_children;
  p.p_root.nd_count <- 0;
  p.p_root.nd_total_ns <- 0;
  p.p_root.nd_alloc_w <- 0.;
  p.p_dispatch_wall_ns <- 0;
  p.p_events <- 0

let start p =
  if not p.p_armed then begin
    p.p_armed <- true;
    p.p_tracer_was_on <- Tracing.enabled p.p_tracer;
    clear p;
    (* Tracing.start clears the span stack, so the sink installed below can
       never see a span that was opened without its f_minor baseline. *)
    Tracing.start p.p_tracer;
    Tracing.set_sink p.p_tracer (Some (record p))
  end

let stop p =
  if p.p_armed then begin
    p.p_armed <- false;
    Tracing.set_sink p.p_tracer None;
    if not p.p_tracer_was_on then Tracing.stop p.p_tracer
  end

(* -------- GC probes -------- *)

(* Armed is checked again at exit: the event that carries the
   f.query(profile,stop) command disarms mid-section, and sampling it would
   count a dispatch whose span never reached the sink (skewing coverage). *)
let event_section p f =
  if not p.p_armed then f ()
  else begin
    (* quick_stat's allocation fields only advance at collection
       boundaries; Gc.minor_words reads the allocation pointer, so the
       per-event delta is exact even when no minor GC ran inside. *)
    let m0 = Gc.minor_words () in
    let s0 = Gc.quick_stat () in
    let t0 = Metrics.now_mono_ns () in
    let finish () =
      if p.p_armed then begin
        let t1 = Metrics.now_mono_ns () in
        let s1 = Gc.quick_stat () in
        Metrics.observe p.h_minor_per_event
          (int_of_float (Gc.minor_words () -. m0));
        Metrics.add p.c_promoted
          (int_of_float (s1.Gc.promoted_words -. s0.Gc.promoted_words));
        Metrics.add p.c_minor_coll (s1.Gc.minor_collections - s0.Gc.minor_collections);
        Metrics.add p.c_major_coll (s1.Gc.major_collections - s0.Gc.major_collections);
        p.p_dispatch_wall_ns <- p.p_dispatch_wall_ns + max 0 (t1 - t0);
        p.p_events <- p.p_events + 1
      end
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

type section = Metrics.histogram

let section p name = Metrics.histogram p.p_metrics ("gc.minor_words." ^ name)

let alloc_section p h f =
  if not p.p_armed then f ()
  else begin
    let m0 = Gc.minor_words () in
    let finish () =
      Metrics.observe h (int_of_float (Gc.minor_words () -. m0))
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* -------- export -------- *)

type frame = {
  name : string;
  count : int;
  total_ns : int;
  self_ns : int;
  alloc_words : float;
  children : frame list;
}

let children_total n =
  Hashtbl.fold (fun _ c acc -> acc + c.nd_total_ns) n.nd_children 0

let rec frame_of name n =
  let children =
    List.map
      (fun (cname, c) -> frame_of cname c)
      (List.sort
         (fun (a, _) (b, _) -> String.compare a b)
         (Hashtbl.fold (fun k v acc -> (k, v) :: acc) n.nd_children []))
  in
  {
    name;
    count = n.nd_count;
    total_ns = n.nd_total_ns;
    self_ns = max 0 (n.nd_total_ns - children_total n);
    alloc_words = n.nd_alloc_w;
    children;
  }

let roots p = (frame_of "" p.p_root).children

let root_total_ns p = children_total p.p_root

(* Coverage of the profiler's own dispatch-wall accumulator by the tree's
   root frames.  The wm.dispatch span wraps event_section, so under a normal
   profile the roots strictly contain every measured dispatch and coverage
   sits at (or just above, thanks to non-dispatch roots like wire.flush)
   1.0.  > 1 is meaningful, so no clamp. *)
let coverage p =
  if p.p_dispatch_wall_ns <= 0 then 1.
  else float_of_int (root_total_ns p) /. float_of_int p.p_dispatch_wall_ns

let rec frame_json f =
  Printf.sprintf
    "{\"count\":%d,\"total_ns\":%d,\"self_ns\":%d,\"alloc_words\":%.0f,\
     \"children\":{%s}}"
    f.count f.total_ns f.self_ns f.alloc_words
    (String.concat ","
       (List.map
          (fun c -> Metrics.json_string c.name ^ ":" ^ frame_json c)
          f.children))

let to_json p =
  Printf.sprintf
    "{\"armed\":%b,\"events\":%d,\"dispatch_wall_ns\":%d,\"root_total_ns\":%d,\
     \"coverage\":%.3f,\"tree\":{%s}}"
    p.p_armed p.p_events p.p_dispatch_wall_ns (root_total_ns p) (coverage p)
    (String.concat ","
       (List.map
          (fun f -> Metrics.json_string f.name ^ ":" ^ frame_json f)
          (roots p)))

(* Collapsed-stack format: one "frame;frame;frame value" line per tree node
   with self time, value in nanoseconds.  Frame names never contain ';' or
   ' ' in practice, but both would corrupt the stack split, so map them. *)
let collapsed_frame_name name =
  String.map (fun c -> if c = ';' || c = ' ' then '_' else c) name

let to_collapsed p =
  let buf = Buffer.create 1024 in
  let rec walk path f =
    let path = path @ [ collapsed_frame_name f.name ] in
    if f.self_ns > 0 then
      Buffer.add_string buf
        (Printf.sprintf "%s %d\n" (String.concat ";" path) f.self_ns);
    List.iter (walk path) f.children
  in
  List.iter (walk []) (roots p);
  Buffer.contents buf

(* The runner: set-up, warm-up, the untraced phase (end-to-end metrics),
   the traced phase (per-layer accounts), the probes and the report.

   Latency of a closed-loop action runs from its first input to the return
   of the [Wm.step] that completes it.  Latency of an open-loop input runs
   from the time it was due to the return of the [Wm.step] that drained
   it, so a stall also charges every input queued behind it.

   The hosts this runs on are shared, and other tenants' cache traffic can
   slow the WM by half again or more, for seconds or for minutes.  So the
   measured phase is cut into [blocks] equal stretches of time, and at each
   cut the clock stops for one sample of the [Host] calibration kernel.
   A block's timings are scaled to the reference host speed by the
   kernel's mean time at the block's two ends.  As the interference only
   ever slows the WM down, each figure is then the quartile of its blocks
   nearest the uncontended cost: the lower quartile of the blocks' p50s
   and the upper quartile of their completion rates.  A p99 needs ten
   samples beyond it, more than an open-loop block holds, so p99 is the
   lower quartile over the most stretches of whole blocks that each leave
   ten beyond it: one block each in the closed loops, about three in the
   open one.  The open-loop completion rate is its inputs over the wall
   time, unscaled, as the schedule sets it, not the host.

   After the measured phase the heap's top is read, and then the workload
   is set up [setups] more times, each set-up followed by its own kernel
   sample.  [setup_s] is the lower quartile of the set-ups, each scaled by
   its own sample.

   The traced phase's span accounts come from a [Profile] on the server's
   tracer: its call tree, folded by span name. *)

module Server = Swm_xlib.Server
module Metrics = Swm_xlib.Metrics
module Tracing = Swm_xlib.Tracing
module Json = Swm_xlib.Json
module Profile = Swm_xlib.Profile
module Wm = Swm_core.Wm
module Ctx = Swm_core.Ctx

let now_ns = Acct.now_ns

(* A run fails when its mean per-action service time grew by this much
   over the run ([Acct.sustained_drift_pct]): host noise alone moved it by
   up to 65%, leaving retired connections open by 308% in 20 s.  Service
   time leaves out an open-loop input's wait behind earlier rounds, which
   would amplify a slow spell of the host into apparent growth. *)
let drift_limit_pct = 150.0

let blocks = 40
let setups = 10

(* -------- one phase -------- *)

type registry = {
  shed : int;
  shed_state : int;
  transitions : int;
  skipped : int;
  evicted : int;
  xerrors : int;
  dispatched : int;
  rejected : int;
  fn_calls : int;
  depth_max : int;
  dispatch_p50_ns : float;
  dispatch_p99_ns : float;
  queue_p50_ns : float;
  queue_p99_ns : float;
}

type phase = {
  closed : bool;  (** closed loop *)
  lat : Acct.samples;  (** per action, ns *)
  svc : Acct.samples;
      (** per action, from its injection to its last step, ns; [lat] itself
          in a closed loop *)
  done_at : Acct.samples;  (** per action, completion time since phase start, ns *)
  late : Acct.samples;  (** open loop: injection time minus due time, ns *)
  wall_ns : int;
  idle_ns : int;  (** open loop: time spent waiting for the next due round *)
  attempted : int;
  failed : int;
  requests : int;  (** [Server.request_count] delta inside the actions *)
  enqueued : int;
  coalesced : int;  (** coalesced + folded queue entries *)
  minor_words : float;
  major_collections : int;
  wire_bytes : int;
  calls : (string * float) list;  (** minor words allocated per public call *)
  reg : registry;
}

(* Quantiles over the merged log2 buckets of a histogram family, read
   from the registry's JSON export (the buckets are not exposed one by
   one).  Same interpolation as [Metrics.hist_quantile]. *)
let family_quantiles m family qs =
  let buckets = Hashtbl.create 32 in
  (match Json.parse (Metrics.to_json m) with
  | Error _ -> ()
  | Ok j ->
      let ( |? ) o k = Option.bind o (Json.member k) in
      let series = Some j |? "labeled_histograms" |? family |? "series" in
      (match series with
      | Some (Json.Obj series) ->
          List.iter
            (fun (_, h) ->
              match Option.bind (Json.member "buckets" h) Json.to_list with
              | Some bs ->
                  List.iter
                    (function
                      | Json.List [ le; n ] -> (
                          match (Json.to_int le, Json.to_int n) with
                          | Some le, Some n ->
                              Hashtbl.replace buckets le
                                (n + Option.value (Hashtbl.find_opt buckets le) ~default:0)
                          | _ -> ())
                      | _ -> ())
                    bs
              | None -> ())
            series
      | Some _ | None -> ()));
  let sorted = List.sort compare (Hashtbl.fold (fun le n acc -> (le, n) :: acc) buckets []) in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 sorted in
  List.map
    (fun q ->
      let target = q *. float_of_int total in
      let rec go cum = function
        | [] -> 0.0
        | (le, n) :: rest ->
            if float_of_int (cum + n) >= target then
              let lower = float_of_int ((le + 1) / 2) and upper = float_of_int le in
              lower +. ((upper -. lower) *. Float.max 0.0 ((target -. float_of_int cum) /. float_of_int n))
            else go (cum + n) rest
      in
      if total = 0 then 0.0 else go 0 sorted)
    qs

let read_registry m =
  let c = Metrics.counter_value m in
  (* Same key and cardinality as the WM's own registration of the family. *)
  let fns = Metrics.counter_family m ~max_series:64 ~key:"fn" "functions.calls" in
  let dispatch = Metrics.histogram m "wm.dispatch_wall_ns" in
  let queue_p50_ns, queue_p99_ns =
    match family_quantiles m "event.queue_ns" [ 0.5; 0.99 ] with
    | [ a; b ] -> (a, b)
    | _ -> (0.0, 0.0)
  in
  {
    shed = c "events.shed";
    shed_state = c "events.shed.state_bearing";
    transitions = c "governor.transitions";
    skipped = c "governor.events_skipped";
    evicted = c "health.evicted";
    xerrors = c "wm.xerrors";
    dispatched = c "wm.events_dispatched";
    rejected = c "wire.rejected_frames";
    fn_calls =
      List.fold_left
        (fun acc label -> acc + Metrics.labeled_counter_value m "functions.calls" label)
        0
        (Metrics.counter_family_labels fns);
    depth_max = Metrics.gauge_value m "queue.depth";
    dispatch_p50_ns = Metrics.hist_quantile dispatch 0.5;
    dispatch_p99_ns = Metrics.hist_quantile dispatch 0.99;
    queue_p50_ns;
    queue_p99_ns;
  }

let failure_reports = ref 0

let report_failure label why =
  if !failure_reports < 10 then Printf.eprintf "FAILED %s: %s\n%!" label why;
  incr failure_reports

(* Run actions until [until] (monotonic ns) or [max_actions].  Unpaced
   open-loop rounds run back to back, for the fixed-count seed tests.
   [pause] runs [pauses] times at even intervals, with the phase's clock
   (and its open-loop schedule) stopped and its allocation not counted.
   [on_label] sees each planned action's label. *)
let run_phase ?(pauses = 0) ?(pause = ignore) ?(on_label = ignore) (w : Workloads.t) ~until
    ~max_actions ~pace =
  let m = Server.metrics w.server in
  Metrics.reset m;
  Workloads.reset_calls ();
  let lc0 = Server.ledger_counts w.server in
  let gc0 = Gc.quick_stat () in
  let wire0 = w.wire_bytes () in
  let lat = Acct.samples () and done_at = Acct.samples () and late = Acct.samples () in
  let svc = match w.loop with Workloads.Closed _ -> lat | Workloads.Open _ -> Acct.samples () in
  let attempted = ref 0 and failed = ref 0 and requests = ref 0 and idle = ref 0 in
  (* The benchmark's own work between actions gets spans too, so the traced
     run's residual is time no span covers. *)
  let harness name f = Tracing.span (Server.tracer w.server) name f in
  let t0 = ref (now_ns ()) and until = ref until in
  let length = !until - !t0 in
  let taken = ref 0 and paused_words = ref 0.0 and paused_majors = ref 0 in
  let maybe_pause () =
    if !taken < pauses && now_ns () >= !t0 + ((!taken + 1) * (length / (pauses + 1))) then begin
      let p0 = now_ns () and g0 = Gc.quick_stat () in
      pause ();
      let g1 = Gc.quick_stat () and d = now_ns () - p0 in
      paused_words := !paused_words +. (g1.minor_words -. g0.minor_words);
      paused_majors := !paused_majors + (g1.major_collections - g0.major_collections);
      t0 := !t0 + d;
      until := !until + d;
      incr taken
    end
  in
  (match w.loop with
  | Workloads.Closed next ->
      while !attempted < max_actions && now_ns () < !until do
        maybe_pause ();
        let a = harness "bench.plan" next in
        on_label a.label;
        let r0 = Server.request_count w.server in
        let s = now_ns () in
        let ran = match a.run () with () -> None | exception e -> Some (Printexc.to_string e) in
        let e = now_ns () in
        requests := !requests + (Server.request_count w.server - r0);
        Acct.add lat (e - s);
        Acct.add done_at (e - !t0);
        incr attempted;
        let why =
          match ran with
          | Some _ -> ran
          | None -> (
              match harness "bench.check" a.check with
              | true -> None
              | false -> Some "check failed"
              | exception ex -> Some (Printexc.to_string ex))
        in
        match why with
        | None -> ()
        | Some why ->
            incr failed;
            report_failure a.label why
      done
  | Workloads.Open { period_ns; next_round; settle } ->
      let i = ref 0 and stop = ref false in
      while not !stop do
        maybe_pause ();
        let due = !t0 + (!i * period_ns) in
        if !attempted >= max_actions || (pace && due >= !until) then stop := true
        else begin
          let r = harness "bench.plan" next_round in
          on_label r.r_label;
          if pace then begin
            let t = now_ns () in
            if t < due then begin
              while now_ns () < due do () done;
              idle := !idle + (due - t)
            end
          end;
          if pace && now_ns () >= !until then stop := true
          else begin
            let s = now_ns () in
            let due = if pace then due else s in
            Acct.add late (s - due);
            let r0 = Server.request_count w.server in
            let why =
              match
                r.r_inject ();
                Workloads.step w.server w.wm
              with
              | () -> None
              | exception e -> Some (Printexc.to_string e)
            in
            let e = now_ns () in
            requests := !requests + (Server.request_count w.server - r0);
            for _ = 1 to r.r_inputs do
              Acct.add lat (e - due);
              Acct.add svc (e - s);
              Acct.add done_at (e - !t0)
            done;
            attempted := !attempted + r.r_inputs;
            (match why with
            | None -> ()
            | Some why ->
                failed := !failed + r.r_inputs;
                report_failure r.r_label why);
            harness "bench.settle" settle;
            incr i
          end
        end
      done);
  let wall_ns = now_ns () - !t0 in
  let gc1 = Gc.quick_stat () in
  let lc1 = Server.ledger_counts w.server in
  {
    closed = (match w.loop with Workloads.Closed _ -> true | Workloads.Open _ -> false);
    lat;
    svc;
    done_at;
    late;
    wall_ns;
    idle_ns = !idle;
    attempted = !attempted;
    failed = !failed;
    requests = !requests;
    enqueued = lc1.lc_enqueued - lc0.lc_enqueued;
    coalesced = lc1.lc_coalesced - lc0.lc_coalesced + lc1.lc_folded - lc0.lc_folded;
    minor_words = gc1.minor_words -. gc0.minor_words -. !paused_words;
    major_collections = gc1.major_collections - gc0.major_collections - !paused_majors;
    wire_bytes = w.wire_bytes () - wire0;
    calls = List.map (fun (c : Workloads.call) -> (c.c_name, c.c_words)) Workloads.calls;
    reg = read_registry m;
  }

(* -------- metrics -------- *)

type metric = { name : string; unit_ : string; value : float }

let us ns = ns /. 1e3
let per a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let fper a b = if b = 0 then 0.0 else a /. float_of_int b
let pct a b = 100.0 *. per a b

(* p50, p99 and completions per second over the phase's [blocks] blocks of
   time, summarised as the header explains.  [scale k] converts block [k]'s
   wall time to the reference host speed. *)
type timing = {
  p50_ns : float;
  p99_ns : float;
  per_s : float;
  stretches : int;  (** stretches the p99 is taken over *)
  basis : int;  (** samples in the one of them that has the fewest *)
}

(* Samples above a p99 taken over [n]: those after the nearest-rank p99
   sample. *)
let beyond_p99 n = n - int_of_float (Float.ceil (0.99 *. float_of_int n))

let timing ?(scale = fun _ -> 1.0) p =
  let by_block = Array.make blocks [] in
  for i = 0 to p.lat.len - 1 do
    let k = min (blocks - 1) (Acct.get p.done_at i * blocks / max 1 p.wall_ns) in
    by_block.(k) <- int_of_float (float_of_int (Acct.get p.lat i) *. scale k) :: by_block.(k)
  done;
  let block_s = float_of_int p.wall_ns /. float_of_int blocks /. 1e9 in
  (* The phase cut into [n] stretches of whole blocks, empty ones left out:
     each one's sorted latencies and its length at the reference speed. *)
  let stretches n =
    List.filter_map
      (fun j ->
        let ks = List.filter (fun k -> k * n / blocks = j) (List.init blocks Fun.id) in
        match Array.of_list (List.concat_map (fun k -> by_block.(k)) ks) with
        | [||] -> None
        | lat ->
            Array.sort compare lat;
            Some (lat, List.fold_left (fun acc k -> acc +. (block_s *. scale k)) 0.0 ks))
      (List.init n Fun.id)
  in
  let rec widest n =
    let s = stretches n in
    if n = 1 || List.for_all (fun (lat, _) -> beyond_p99 (Array.length lat) >= 10) s then s
    else widest (n - 1)
  in
  let each = stretches blocks and tails = widest blocks in
  let quartile q l f = Acct.quantile_float (List.map f l) q in
  let at q (lat, _) = float_of_int (Acct.quantile lat q) in
  {
    p50_ns = quartile 0.25 each (at 0.5);
    p99_ns = quartile 0.25 tails (at 0.99);
    per_s =
      (if p.closed then
         quartile 0.75 each (fun (lat, ref_s) -> float_of_int (Array.length lat) /. ref_s)
       else float_of_int p.lat.len /. (float_of_int p.wall_ns /. 1e9));
    stretches = List.length tails;
    basis = List.fold_left (fun acc (lat, _) -> min acc (Array.length lat)) p.lat.len tails;
  }

let end_to_end ?scale ~setup_s ~heap_peak_mb p =
  let tm = timing ?scale p in
  [
    { name = "setup_s"; unit_ = "s"; value = setup_s };
    { name = "p50_us"; unit_ = "us"; value = us tm.p50_ns };
    { name = "p99_us"; unit_ = "us"; value = us tm.p99_ns };
    { name = "actions_per_s"; unit_ = "1/s"; value = tm.per_s };
    { name = "requests_per_action"; unit_ = "count"; value = per p.requests p.attempted };
    { name = "heap_peak_mb"; unit_ = "MB"; value = heap_peak_mb };
  ]

type probes = {
  xo : Probes.xrdb_oi;
  pan : Probes.panner;
  tick_ns : float;
}

(* The traced phase's span accounts: count, total and self time per span
   name, summed over every place the name occurs in the profile's call
   tree. *)
type span_row = { count : int; total_ns : int; self_ns : int }

let span_rows profile =
  let rows = Hashtbl.create 64 in
  let rec add (f : Profile.frame) =
    let r =
      Option.value (Hashtbl.find_opt rows f.name) ~default:{ count = 0; total_ns = 0; self_ns = 0 }
    in
    Hashtbl.replace rows f.name
      { count = r.count + f.count; total_ns = r.total_ns + f.total_ns; self_ns = r.self_ns + f.self_ns };
    List.iter add f.children
  in
  List.iter add (Profile.roots profile);
  rows

(* Per-layer metrics.  Times named [<span>_us] are per call of that span;
   [*_self_us], [residual_us] and the [gc.*] words are per action.  [u] is
   the untraced phase (always-on series, allocation, drift), [t] the traced
   one and [profile] its call tree. *)
let per_layer ~(u : phase) ~(t : phase) ~profile ~probes ~governor_interval ~ledger_balance
    ~failed_pct ~host_ns =
  let actions = t.attempted in
  let rows = span_rows profile in
  let row name = Hashtbl.find_opt rows name in
  let per_call name =
    match row name with
    | Some r when r.count > 0 -> us (float_of_int r.total_ns /. float_of_int r.count)
    | Some _ | None -> 0.0
  in
  let total name = match row name with Some r -> r.total_ns | None -> 0 in
  let count name = match row name with Some r -> r.count | None -> 0 in
  let self_of pick =
    Hashtbl.fold (fun name r acc -> if pick name then acc + r.self_ns else acc) rows 0
  in
  let busy_ns = t.wall_ns - t.idle_ns in
  let pan = probes.pan and xo = probes.xo in
  let m name unit_ value = { name; unit_; value } in
  [
    (* load generator *)
    m "client.launch_us" "us" (per_call "client.launch");
    m "client.retire_us" "us" (per_call "client.retire");
    m "client.inject_us" "us" (per_call "client.inject");
    m "gen.late_us_p99" "us" (us (float_of_int (Acct.quantile (Acct.sorted t.late) 0.99)));
    m "gen.harness_us" "us"
      (us (per (self_of (fun n -> String.length n > 6 && String.sub n 0 6 = "bench.")) actions));
    (* wire *)
    m "wire.submit_us" "us" (per_call "wire.submit");
    m "wire.flush_us" "us" (per_call "wire.flush_batch");
    m "wire.bytes_per_action" "B" (per t.wire_bytes actions);
    m "wire.rejected_frames" "count" (float_of_int t.reg.rejected);
    (* queues *)
    m "server.enqueued_per_action" "count" (per t.enqueued actions);
    m "server.coalesced_pct" "%" (pct t.coalesced t.enqueued);
    m "server.shed" "count" (float_of_int t.reg.shed);
    m "server.queue_depth_max" "count" (float_of_int t.reg.depth_max);
    m "server.queue_wait_us_p50" "us" (us u.reg.queue_p50_ns);
    m "server.queue_wait_us_p99" "us" (us u.reg.queue_p99_ns);
    m "server.deliver_us" "us" (per_call "server.deliver");
    m "server.ledger_balance" "count" (float_of_int ledger_balance);
    (* governor *)
    m "governor.tick_us" "us" (us probes.tick_ns);
    m "governor.ticks_per_action" "count"
      (fper (float_of_int (t.reg.dispatched + t.reg.skipped) /. float_of_int governor_interval) actions);
    m "governor.transitions" "count" (float_of_int t.reg.transitions);
    m "governor.events_skipped" "count" (float_of_int t.reg.skipped);
    m "health.evicted" "count" (float_of_int t.reg.evicted);
    (* dispatch *)
    m "wm.step_us" "us" (per_call "wm.step");
    m "wm.events_per_action" "count" (per t.reg.dispatched actions);
    m "wm.dispatch_us_p50" "us" (us u.reg.dispatch_p50_ns);
    m "wm.dispatch_us_p99" "us" (us u.reg.dispatch_p99_ns);
    m "wm.dispatch_self_us" "us" (us (per (self_of (String.equal "wm.dispatch")) actions));
    m "wm.xerrors" "count" (float_of_int t.reg.xerrors);
    (* resource DB *)
    m "xrdb.entries" "count" (float_of_int xo.entries);
    m "xrdb.queries_per_decoration" "count" (per xo.queries xo.decorations);
    m "xrdb.query_us" "us" (us (per xo.query_ns xo.queries));
    m "xrdb.share_pct" "%" (pct xo.query_ns xo.build_ns);
    (* OI / decoration *)
    m "decoration.build_us" "us" (per_call "decoration.build");
    m "decoration.redraw_us" "us" (per_call "decoration.redraw");
    m "decoration.resize_us" "us" (per_call "decoration.resize");
    m "oi.build_us" "us" (us (per (xo.build_ns - xo.query_ns) xo.decorations));
    m "decoration.build_share_pct" "%" (pct (total "decoration.build") busy_ns);
    (* functions *)
    m "functions.calls_per_action" "count" (per t.reg.fn_calls actions);
    m "functions.self_us" "us"
      (us (per (self_of (fun n -> String.length n > 2 && String.sub n 0 2 = "f.")) actions));
    m "swmcmd.send_us" "us" (per_call "swmcmd.send");
    (* desktop *)
    m "vdesk.pan_us" "us" (per_call "vdesk.pan_to");
    m "panner.refreshes_per_action" "count" (per (count "panner.refresh") actions);
    m "panner.refresh_us" "us" (per_call "panner.refresh");
    m "panner.share_pct" "%" (pct (total "panner.refresh") (total "wm.step"));
    m "panner.requests_per_refresh" "count" (per pan.requests Probes.panner_refreshes);
    m "panner.clients" "count" (float_of_int pan.miniatures);
    (* runtime *)
    m "gc.minor_words_per_action" "words" (fper u.minor_words u.attempted);
  ]
  @ List.map
      (fun (name, words) -> m ("gc.minor_words." ^ name) "words" (fper words u.attempted))
      u.calls
  @ [
      m "gc.major_collections" "count" (float_of_int u.major_collections);
      (* accounting: the self times of all spans add up to the time the
         outermost ones cover, so the residual is the time no span covers *)
      m "residual_us" "us" (us (per (busy_ns - Profile.root_total_ns profile) actions));
      m "trace.overhead_pct" "%"
        (100.0 *. (((timing t).p50_ns /. Float.max 1.0 (timing u).p50_ns) -. 1.0));
      m "trace.overhead_rate_pct" "%"
        (100.0 *. (((timing u).per_s /. Float.max 1.0 (timing t).per_s) -. 1.0));
      m "drift_pct" "%" (Acct.drift_pct u.lat);
      m "failed_pct" "%" failed_pct;
      m "host.kernel_ms" "ms" (host_ns /. 1e6);
    ]

(* -------- output -------- *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_table title metrics =
  Printf.printf "== %s\n" title;
  List.iter (fun x -> Printf.printf "   %-34s %18.6f %s\n" x.name x.value x.unit_) metrics

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Metrics.json_string x.name)
             (json_number x.value) (Metrics.json_string x.unit_))
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* -------- a whole run -------- *)

type config = { workload : string; seed : int; seconds : float; trace : bool }

let setup cfg =
  Gc.compact ();
  let t0 = now_ns () in
  let w = Workloads.make cfg.workload ~seed:cfg.seed in
  (w, float_of_int (now_ns () - t0) /. 1e9)

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

(* The end-of-run checks every workload shares: after the last drain the
   ledger balances and no state-bearing event was shed. *)
let end_checks (w : Workloads.t) ~shed_state =
  w.quiesce ();
  let bad = w.final_check () in
  let balance = (Server.ledger_counts w.server).lc_balance in
  if bad > 0 then report_failure "end of run" (Printf.sprintf "%d final checks failed" bad);
  if balance <> 0 then report_failure "end of run" (Printf.sprintf "ledger balance %d" balance);
  if shed_state <> 0 then
    report_failure "end of run" (Printf.sprintf "%d state-bearing events shed" shed_state);
  (bad + (if balance <> 0 then 1 else 0) + (if shed_state <> 0 then 1 else 0), balance)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  notes : string list;
  warnings : string list;
  tables : (string * metric list) list;  (** everything measured, for people *)
  result : metric list;  (** the metrics of the JSON line *)
}

let measure cfg =
  let w, first_setup = setup cfg in
  (* Calibration kernel samples at the measured phase's block ends, newest
     first. *)
  let host = ref [] in
  let sample_host () = host := float_of_int (Host.sample ()) :: !host in
  let total_ns = int_of_float (cfg.seconds *. 1e9) in
  let phase ?pauses ~ns () =
    run_phase ?pauses ~pause:sample_host w ~until:(now_ns () + ns) ~max_actions:max_int ~pace:true
  in
  let warm = phase ~ns:(min 1_000_000_000 (total_ns / 10)) () in
  sample_host ();
  let u = phase ~pauses:(blocks - 1) ~ns:(if cfg.trace then total_ns / 2 else total_ns) () in
  sample_host ();
  let heap_mb = heap_peak_mb () in
  (* (seconds, kernel ns): each set-up's garbage is collected before its
     kernel sample. *)
  let setup_pairs =
    List.init setups (fun _ ->
        let s = snd (setup cfg) in
        Gc.compact ();
        (s, float_of_int (Host.sample ())))
  in
  let traced =
    if not cfg.trace then None
    else begin
      let profile =
        Profile.create ~metrics:(Server.metrics w.server) ~tracer:(Server.tracer w.server) ()
      in
      Profile.start profile;
      let t = phase ~ns:(total_ns / 2) () in
      Profile.stop profile;
      Some (t, profile)
    end
  in
  let phases = [ warm; u ] @ (match traced with Some (t, _) -> [ t ] | None -> []) in
  let reference = float_of_int Host.reference_ns in
  let samples = Array.of_list (List.rev !host) in
  let block_scale k =
    let at i = samples.(max 0 (min (Array.length samples - 1) i)) in
    reference /. ((at k +. at (k + 1)) /. 2.0)
  in
  let host_ns = Acct.quantile_float !host 0.25 in
  let e2e ~scaled =
    let setup_s =
      Acct.quantile_float
        (List.map (fun (s, k) -> if scaled then s *. reference /. k else s) setup_pairs)
        0.25
    in
    if scaled then end_to_end ~scale:block_scale ~setup_s ~heap_peak_mb:heap_mb u
    else end_to_end ~setup_s ~heap_peak_mb:heap_mb u
  in
  let shed_state = List.fold_left (fun acc p -> acc + p.reg.shed_state) 0 phases in
  let end_failed, balance = end_checks w ~shed_state in
  let attempted = List.fold_left (fun acc (p : phase) -> acc + p.attempted) 0 phases in
  let failed = end_failed + List.fold_left (fun acc (p : phase) -> acc + p.failed) 0 phases in
  let failed_pct = 100.0 *. per failed attempted in
  let sustained = Acct.sustained_drift_pct u.svc in
  let drifted = sustained > drift_limit_pct in
  if drifted then
    Printf.eprintf
      "DRIFT: the mean per-action cost grew %+.1f%% over the run (median of the last tenth \
       %+.1f%%): something grows with run length\n%!"
      sustained (Acct.drift_pct u.lat);
  let tm = timing u in
  let basis = tm.basis in
  let notes =
    [
      Printf.sprintf "workload %s, seed %d: %d actions measured, %d attempted, %d failed"
        cfg.workload cfg.seed u.attempted attempted failed;
      Printf.sprintf
        "p99: over %d stretches of the %d blocks; the smallest holds %d actions, %d beyond its p99%s"
        tm.stretches blocks basis (beyond_p99 basis)
        (if u.closed then "" else " (the inputs of one round share a latency)");
      Printf.sprintf "drift: median of the last tenth %+.1f%%, mean per-action cost %+.1f%%"
        (Acct.drift_pct u.lat) sustained;
      Printf.sprintf "host: calibration kernel %s ms at the block ends (%.2f ms on a quiet host)"
        (String.concat " "
           (Array.to_list (Array.map (fun ns -> Printf.sprintf "%.2f" (ns /. 1e6)) samples)))
        (reference /. 1e6);
      Printf.sprintf "set-ups (s): first %.4f; after the measured phase %s" first_setup
        (String.concat " "
           (List.map
              (fun (s, k) -> Printf.sprintf "%.4f (kernel %.2f ms)" s (k /. 1e6))
              setup_pairs));
    ]
  in
  let warnings =
    if (not cfg.trace) && beyond_p99 basis < 10 then
      [ Printf.sprintf
          "WARNING: p99_us rests on %d samples beyond it, fewer than 10: measure for longer"
          (beyond_p99 basis) ]
    else []
  in
  let correct = failed = 0 && not drifted in
  let failed_metric = { name = "failed_pct"; unit_ = "%"; value = failed_pct } in
  match traced with
  | None ->
      {
        correct;
        attempted;
        failed;
        notes;
        warnings;
        tables =
          [ ("end to end (untraced), raw wall time", e2e ~scaled:false);
            ("end to end (untraced), at the reference host speed", e2e ~scaled:true @ [ failed_metric ]) ];
        result = e2e ~scaled:true;
      }
  | Some (t, profile) ->
      let probes =
        { xo = Probes.xrdb_oi w; pan = Probes.panner w; tick_ns = Probes.governor_tick w }
      in
      let layers =
        per_layer ~u ~t ~profile ~probes
          ~governor_interval:(Wm.ctx w.wm).Ctx.governor_interval ~ledger_balance:balance
          ~failed_pct ~host_ns
      in
      {
        correct;
        attempted;
        failed;
        notes;
        warnings;
        tables =
          [ ("end to end (untraced half), at the reference host speed", e2e ~scaled:true);
            ("per layer (traced half, probes, always-on series; raw wall time)", layers) ];
        result = layers;
      }

let run cfg =
  let o = measure cfg in
  List.iter print_endline o.notes;
  List.iter prerr_endline o.warnings;
  List.iter (fun (title, metrics) -> print_table title metrics) o.tables;
  print_result ~correct:o.correct ~attempted:o.attempted ~failed:o.failed o.result;
  o.correct

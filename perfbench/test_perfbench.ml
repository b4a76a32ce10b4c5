(* The benchmark's own tests.

   - A seed fixes the program's inputs: two fixed-length runs of a workload
     with one seed issue the same requests, enqueue, coalesce and deliver
     the same events (ledger fate counts) and call the same f.* functions;
     another seed plans different actions.
   - Every action's check passes.
   - The metrics a run prints are the ones BENCHMARK.json declares, with
     the same units. *)

module Bench = Perfbench.Bench
module Workloads = Perfbench.Workloads
module Server = Swm_xlib.Server
module Json = Swm_xlib.Json

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      prerr_endline ("test_perfbench: " ^ msg))
    fmt

type fingerprint = {
  labels : string list;
  counts : int list;  (** deterministic counters, in a fixed order *)
  failed : int;
}

let fingerprint workload ~seed ~actions =
  let w = Workloads.make workload ~seed in
  let labels = ref [] in
  let p =
    Bench.run_phase w ~until:max_int ~max_actions:actions ~pace:false ~on_label:(fun l ->
        labels := l :: !labels)
  in
  let lc = Server.ledger_counts w.server in
  {
    labels = List.rev !labels;
    counts =
      [ p.requests; p.enqueued; p.coalesced; p.reg.fn_calls; p.reg.dispatched; lc.lc_enqueued;
        lc.lc_delivered; lc.lc_coalesced; lc.lc_folded; lc.lc_dropped; lc.lc_shed;
        lc.lc_skipped; lc.lc_evicted; lc.lc_pending ];
    failed = p.failed;
  }

let test_seeds workload ~actions =
  let a = fingerprint workload ~seed:7 ~actions in
  let b = fingerprint workload ~seed:7 ~actions in
  let c = fingerprint workload ~seed:8 ~actions in
  if a.counts <> b.counts then fail "%s: one seed gave different counts" workload;
  if a.labels <> b.labels then fail "%s: one seed gave different actions" workload;
  if a.labels = c.labels then fail "%s: two seeds gave the same actions" workload;
  if a.failed + b.failed + c.failed > 0 then fail "%s: an action's check failed" workload

(* The (name, unit) pairs of one section of BENCHMARK.json. *)
let declared section =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  match Json.parse text with
  | Error msg -> failwith ("BENCHMARK.json: " ^ msg)
  | Ok j -> (
      match Option.bind (Json.member section j) Json.to_list with
      | None -> failwith ("BENCHMARK.json: no " ^ section)
      | Some items ->
          List.filter_map
            (fun item ->
              match
                ( Option.bind (Json.member "name" item) Json.to_string,
                  Option.bind (Json.member "unit" item) Json.to_string )
              with
              | Some n, Some u -> Some (n, u)
              | _ -> None)
            items)

let test_declared_metrics ~trace section =
  let o = Bench.measure { Bench.workload = "manage_churn"; seed = 1; seconds = 0.3; trace } in
  let printed = List.map (fun (m : Bench.metric) -> (m.name, m.unit_)) o.result in
  if printed <> declared section then
    fail "--trace %d prints other metrics than BENCHMARK.json's %s" (Bool.to_int trace) section;
  if o.attempted = 0 || o.failed > 0 then
    fail "--trace %d: %d attempted, %d failed" (Bool.to_int trace) o.attempted o.failed

let () =
  test_seeds "manage_churn" ~actions:40;
  test_seeds "interactive" ~actions:60;
  test_seeds "storm" ~actions:120;
  test_declared_metrics ~trace:false "end_to_end";
  test_declared_metrics ~trace:true "per_layer";
  if !failures > 0 then exit 1

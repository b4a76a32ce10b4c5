(* swmbench --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload and prints every metric with its unit, then one JSON
   line: {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
   the end-to-end metrics, --trace 1 the per-layer ones.  Exits 1 when an
   action's check failed or the per-action cost drifted, 2 on bad usage. *)

let usage () =
  Printf.eprintf
    "usage: swmbench --workload (%s) --seed N --seconds S --trace 0|1\n"
    (String.concat "|" Perfbench.Workloads.names);
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest when List.mem v Perfbench.Workloads.names ->
        workload := Some v;
        parse rest
    | "--seed" :: v :: rest when int_of_string_opt v <> None ->
        seed := int_of_string_opt v;
        parse rest
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0.0 ->
            seconds := Some s;
            parse rest
        | Some _ | None -> usage ())
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := Some (v = "1");
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace ->
      let correct = Perfbench.Bench.run { workload; seed; seconds; trace } in
      exit (if correct then 0 else 1)
  | _ -> usage ()

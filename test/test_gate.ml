(* The bench's gate rule ({!Gate.breaches}): a key [K_budget] bounds its
   sibling [K] from above, and a figure that is over its budget, missing
   or not a number is a breach. *)

let check = Alcotest.check

let test_budget_bounds_sibling () =
  let breaches = Gate.breaches in
  check Alcotest.(list string) "within budget" []
    (breaches {|{"realize": {"requests_per_manage": 19, "requests_per_manage_budget": 19}}|});
  check Alcotest.(list string) "over budget"
    [ "realize.requests_per_manage = 20 > 19" ]
    (breaches {|{"realize": {"requests_per_manage": 20, "requests_per_manage_budget": 19}}|});
  check Alcotest.(list string) "orphaned budget"
    [ "allocation.churn_words_per_event = missing > 400" ]
    (breaches {|{"allocation": {"churn_words": 278.9, "churn_words_per_event_budget": 400}}|});
  check Alcotest.(list string) "null figure"
    [ "recorder.record_disabled_ns = null > 50" ]
    (breaches {|{"recorder": {"record_disabled_ns": null, "record_disabled_ns_budget": 50}}|})

let suite =
  [ Alcotest.test_case "K_budget bounds its sibling K" `Quick test_budget_bounds_sibling ]

(* The bench's one gate rule, applied to every artifact it writes: a key
   [K_budget] in any object is an upper bound on its sibling [K].  A
   figure that is missing, not a number, or over its budget is a breach,
   so a figure renamed without its budget fails rather than going
   ungated. *)

module Json = Swm_xlib.Json

let suffix = "_budget"

(* One line per breach, "object.K = V > B", in document order; text that
   does not parse is one breach. *)
let breaches text =
  let rec walk path acc = function
    | Json.Obj fields ->
        List.fold_left
          (fun acc (key, value) ->
            let at k = if path = "" then k else path ^ "." ^ k in
            let acc = walk (at key) acc value in
            let n = String.length key - String.length suffix in
            if n > 0 && String.ends_with ~suffix key then
              let figure = String.sub key 0 n in
              match (List.assoc_opt figure fields, Json.to_float value) with
              | Some (Json.Num v), Some bound when v <= bound -> acc
              | found, _ ->
                  Printf.sprintf "%s = %s > %s" (at figure)
                    (match found with Some v -> Json.render v | None -> "missing")
                    (Json.render value)
                  :: acc
            else acc)
          acc fields
    | Json.List items ->
        snd
          (List.fold_left
             (fun (i, acc) item -> (i + 1, walk (Printf.sprintf "%s[%d]" path i) acc item))
             (0, acc) items)
    | Json.Null | Json.Bool _ | Json.Num _ | Json.Str _ -> acc
  in
  match Json.parse text with
  | Error msg -> [ "does not parse: " ^ msg ]
  | Ok doc -> List.rev (walk "" [] doc)

(* What one workload run reports, and how it is printed: one line per
   metric as "workload metric value unit", then, as the last line, one
   JSON object with the end-to-end metrics (untraced runs) or the
   per-layer metrics (traced runs). *)

type metric = string * float * string (* name, value, unit *)

type t = {
  workload : string;
  correct : bool;  (* no checker violation, every op checked *)
  attempted : int;
  failed : int;
  e2e : metric list;
  layer : metric list;  (* empty unless traced *)
  notes : metric list;  (* printed, never in the JSON *)
}

(* All the digits a float has; JSON has no NaN or infinity. *)
let number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else invalid_arg "Report.number: not finite"

let print_lines r =
  List.iter
    (fun (name, v, unit) -> Printf.printf "%s %s %s %s\n" r.workload name (number v) unit)
    (r.e2e @ r.notes @ r.layer)

let json r ~trace =
  let metrics = if trace then r.layer else r.e2e in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (number v) unit)
          metrics))

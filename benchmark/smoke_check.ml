(* smoke_check BENCHMARK.json OUTPUT   (OUTPUT "-" reads stdin)

   Checks a run's output against the benchmark definition: every
   workload BENCHMARK.json lists printed every end-to-end and per-layer
   metric it lists, with the listed unit; every workload printed
   "violations 0"; and every run's JSON line says "correct": true and,
   for a listed workload, holds exactly the end-to-end or exactly the
   per-layer metrics. *)

module Json = Obs.Export.Json

let fail fmt =
  Printf.ksprintf (fun s -> prerr_endline ("smoke_check: " ^ s); exit 1) fmt

let field name j =
  match Json.member name j with Some v -> v | None -> fail "missing %S" name

let str = function Json.Str s -> s | _ -> fail "expected a string"

let list = function Json.List l -> l | _ -> fail "expected a list"

let () =
  let spec_path, out_path =
    match Sys.argv with
    | [| _; s; o |] -> (s, o)
    | _ -> fail "usage: smoke_check BENCHMARK.json OUTPUT"
  in
  let spec =
    match Json.of_string (Obs.Export.read_file spec_path) with
    | Ok j -> j
    | Error e -> fail "%s: %s" spec_path e
  in
  let workloads =
    List.map (fun w -> str (field "name" w)) (list (field "workloads" spec))
  in
  let metrics k =
    List.map (fun m -> (str (field "name" m), str (field "unit" m))) (list (field k spec))
  in
  let e2e = metrics "end_to_end" and layer = metrics "per_layer" in
  let names l = List.sort compare (List.map fst l) in
  let printed = Hashtbl.create 256 and current = ref "" in
  List.iter
    (fun line ->
      if String.length line > 0 && line.[0] = '{' then begin
        match Json.of_string line with
        | Ok (Json.Obj _ as j) when Json.member "correct" j = Some (Json.Bool true) ->
            let keys =
              match field "metrics" j with
              | Json.Obj kv -> List.sort compare (List.map fst kv)
              | _ -> fail "metrics is not an object"
            in
            if List.mem !current workloads && keys <> names e2e && keys <> names layer
            then fail "%s: the JSON metrics are not BENCHMARK.json's" !current
        | _ -> fail "a run is not correct: %s" line
      end
      else
        match String.split_on_char ' ' line with
        | [ w; name; value; unit ] ->
            current := w;
            Hashtbl.replace printed (w, name) (value, unit)
        | _ -> ())
    (String.split_on_char '\n'
       (if out_path = "-" then In_channel.input_all stdin
        else Obs.Export.read_file out_path));
  List.iter
    (fun w ->
      List.iter
        (fun (name, unit) ->
          match Hashtbl.find_opt printed (w, name) with
          | Some (_, u) when u = unit -> ()
          | Some (_, u) -> fail "%s %s: unit %s, BENCHMARK.json says %s" w name u unit
          | None -> fail "%s did not print %s" w name)
        (e2e @ layer))
    workloads;
  Hashtbl.iter
    (fun (w, name) (value, _) ->
      if name = "violations" && float_of_string value <> 0. then
        fail "%s: %s violations" w value)
    printed

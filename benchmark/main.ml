(* The repository's benchmark.  See README.md in this directory.

     main.exe [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
              [--repeat N] [--out FILE]

   Prints every metric of every run as "workload metric value unit",
   then the run's JSON object as a line of its own; exits 1 if any run
   saw a checker violation or left an op unchecked. *)

let workloads = List.map (fun s -> s.Live.name) Live.specs @ [ "sim-campaign" ]

let run_one name ~seed ~seconds ~trace ~sp =
  match List.find_opt (fun s -> s.Live.name = name) Live.specs with
  | Some spec -> Live.run spec ~seed ~seconds ~trace ~sp
  | None -> Sim_campaign.run ~seed ~seconds ~trace ~sp

(* Median, quartiles and spread of each metric over the repeated runs. *)
let summarize results =
  let tbl = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun (r : Report.t) ->
      List.iter
        (fun (name, v, unit) ->
          let k = (r.workload, name, unit) in
          match Hashtbl.find_opt tbl k with
          | Some l -> l := v :: !l
          | None ->
              Hashtbl.add tbl k (ref [ v ]);
              order := k :: !order)
        (r.e2e @ r.layer))
    results;
  print_endline "# workload metric median q1 q3 spread unit";
  List.iter
    (fun ((w, name, unit) as k) ->
      let med, q1, q3, spread = Stat.spread (Array.of_list !(Hashtbl.find tbl k)) in
      Printf.printf "%s %s %s %s %s %.4f %s\n" w name (Report.number med)
        (Report.number q1) (Report.number q3) spread unit)
    (List.rev !order)

let main () =
  let ws = ref [] and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let repeat = ref 1 and out = ref "" in
  let usage = "main.exe [--workload W]... [--seed N] [--seconds S] [--trace 0|1] [--repeat N] [--out FILE]" in
  let args =
    [
      ( "--workload",
        Arg.String
          (fun w ->
            if List.mem w workloads then ws := w :: !ws
            else raise (Arg.Bad ("unknown workload " ^ w))),
        "W  run workload W (repeatable; default: all of " ^ String.concat ", " workloads ^ ")" );
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds per run (default 10)");
      ( "--trace",
        Arg.Int
          (function
          | 0 -> trace := false
          | 1 -> trace := true
          | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
        "0|1  1 adds a traced pass, replay and spans; the JSON then holds the per-layer metrics" );
      ("--repeat", Arg.Set_int repeat, "N  run each workload N times, seeds N.., and summarize");
      ("--out", Arg.Set_string out, "FILE  also write every run's JSON object to FILE");
    ]
  in
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !seconds <= 0. || !repeat < 1 then begin
    prerr_endline "main.exe: --seconds must be > 0 and --repeat >= 1";
    exit 2
  end;
  let ws = if !ws = [] then workloads else List.rev !ws in
  let json = Buffer.create 1024 and spans = ref [] in
  let results =
    List.concat_map
      (fun rep ->
        List.map
          (fun w ->
            let seed = !seed + rep in
            let sp = if !trace then Some (Spans.create ()) else None in
            (* Each run starts from a compact heap, as in a fresh process. *)
            Gc.compact ();
            let r = run_one w ~seed ~seconds:!seconds ~trace:!trace ~sp in
            Report.print_lines r;
            Option.iter
              (fun t ->
                List.iter
                  (fun (layer, ns) ->
                    Printf.printf "%s self_ms.%s %.3f ms\n" w layer (float_of_int ns /. 1e6))
                  (Spans.self_ns t);
                spans := (Printf.sprintf "%s/%d" w seed, t) :: !spans)
              sp;
            let line = Report.json r ~trace:!trace in
            print_endline line;
            Buffer.add_string json (line ^ "\n");
            r)
          ws)
      (List.init !repeat Fun.id)
  in
  if !repeat > 1 then summarize results;
  if !out <> "" then Obs.Export.write_file ~path:!out (Buffer.contents json);
  if !trace then begin
    let oc = open_out_bin "trace.jsonl" in
    List.iter (fun (run, t) -> Spans.write_jsonl oc ~run t) (List.rev !spans);
    close_out oc
  end;
  if not (List.for_all (fun (r : Report.t) -> r.correct) results) then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "fleet" :: args -> Fleet.serve args
  | _ ->
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      main ()

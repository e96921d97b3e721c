(* Quickstart for the network runtime: spin up a 4-object loopback
   cluster (t = 1, b = 0; one object above the 2t+b+1 = 3 minimum, so a
   crashed server leaves slack), do a WRITE, read it back with a fast
   READ, and print the operations' span JSONL — the same export format
   the simulator emits, but with microsecond timestamps from a real
   socket round-trip.

   Run with: dune exec examples/live_cluster.exe *)

let () =
  (* 1. Resilience arithmetic is shared with the simulator. *)
  let cfg = Quorum.Config.make_exn ~s:4 ~t:1 ~b:0 in
  Format.printf "deploying %a over loopback unix sockets@." Quorum.Config.pp cfg;

  (* 2. One server per base object, and one client engine: its writer
     and its reader lane drive the single register, key 0. *)
  let cluster = Net.Cluster.start ~protocol:Net.Protocols.safe ~cfg () in
  let engine = Net.Cluster.engine cluster in
  let run op = (Net.Cluster.run engine [| op |]).(0) in

  (* 3. WRITE, then READ against the live servers. *)
  (match
     run (Net.Client.Keyed.Write { key = 0; value = Core.Value.v "hello-net" })
   with
  | Ok o -> Format.printf "WRITE hello-net completed in %d round(s)@." o.rounds
  | Error e -> failwith ("write failed: " ^ e));
  (match run (Net.Client.Keyed.Read { key = 0 }) with
  | Ok o ->
      Format.printf "READ returned %s in %d round(s)@."
        (match o.value with
        | Some v -> Core.Value.to_string v
        | None -> "?")
        o.rounds
  | Error e -> failwith ("read failed: " ^ e));

  (* 4. The live history passes the paper's checkers, like a simulated
     one. *)
  let history = Net.Cluster.history cluster in
  Format.printf "history: %d ops, safe: %b, regular: %b@." (List.length history)
    (Histories.Checks.is_safe ~equal:String.equal history)
    (Histories.Checks.is_regular ~equal:String.equal history);

  (* 5. Spans export through the existing observability pipeline. *)
  print_string "--- span JSONL ---\n";
  print_string (Obs.Export.spans_jsonl (Net.Cluster.spans cluster));

  Net.Cluster.stop cluster

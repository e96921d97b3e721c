(* E14 -- live-cluster latency and throughput over loopback sockets.

   The simulator's E1..E12 measure rounds in virtual time; E14 runs the
   same protocols against real servers (lib/net) and reports wall-clock
   microseconds: how fast is a very robust read when the quorum is made
   of sockets rather than function calls?

   For each (protocol, configuration) cell:

   1. fault-free WRITE latency (p50/p99 over E14_WRITES writes);
   2. fault-free READ latency and throughput from one reader
      (p50/p99/mean over E14_OPS reads), plus the fraction of reads
      that finished in a single round — the paper's fast-read rate,
      now measured over a transport that can actually reorder replies;
   3. aggregate READ throughput with each reader count in E14_READERS,
      every reader a paper process with an engine of its own, all of
      them polled from one loop.

   Every cell's history — each write, read and concurrent read — is
   then checked against the property the protocol claims, and each
   op's rounds against the protocol's round bounds.

   One JSON artifact: BENCH_e14.json.  Scale is environment-tunable so
   CI can run a smoke version:
     E14_OPS      (300)        reads per latency cell
     E14_WRITES   (20)         writes per latency cell
     E14_CFGS     (4:1:0,7:2:1) comma-separated s:t:b cells
     E14_READERS  (1,2,4)      concurrent-reader sweep
     E14_OUT      (BENCH_e14.json) output path *)

let ok_exn what r = Exp_common.ok_exn "E14" what r

let cfgs () =
  Exp_common.getenv_list "E14_CFGS"
    [ (4, 1, 0); (7, 2, 1) ]
    (fun s ->
      match String.split_on_char ':' s |> List.map int_of_string_opt with
      | [ Some s; Some t; Some b ] -> Some (s, t, b)
      | _ -> None)

let reader_counts () =
  Exp_common.getenv_list "E14_READERS" [ 1; 2; 4 ] (fun s ->
      match int_of_string_opt s with Some n when n >= 1 -> Some n | _ -> None)

let protocols = Fault.Campaign.[ Safe; Regular; Abd ]

let run () =
  let ops = Exp_common.getenv_int "E14_OPS" 300 in
  let writes = Exp_common.getenv_int "E14_WRITES" 20 in
  let out = Option.value (Sys.getenv_opt "E14_OUT") ~default:"BENCH_e14.json" in
  let reader_counts = reader_counts () in
  let max_readers = List.fold_left max 1 reader_counts in
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "{\n  \"experiment\": \"e14\",\n  \"transport\": \"unix\",\n  \
     \"ops\": %d,\n  \"writes\": %d,\n  \"cells\": [\n"
    ops writes;
  let cells = List.concat_map (fun p -> List.map (fun c -> (p, c)) (cfgs ())) protocols in
  Exp_common.note
    "E14: live-cluster latency/throughput (%d cells, %d reads each)"
    (List.length cells) ops;
  let violations_total = ref 0 in
  List.iteri
    (fun ci (p, (s, t, b)) ->
      let protocol = Option.get (Net.Live.protocol_of p) in
      let name = Net.Protocols.name protocol in
      let cfg = Quorum.Config.make_exn ~s ~t ~b in
      let cluster = Net.Cluster.start ~protocol ~cfg () in
      Fun.protect
        ~finally:(fun () -> Net.Cluster.stop cluster)
        (fun () ->
          let writer, readers =
            Net.Cluster.processes cluster ~readers:max_readers
          in
          (* 1. write latency *)
          let wlat = Stats.Summary.create () in
          for i = 1 to writes do
            let o =
              ok_exn
                (Printf.sprintf "%s write %d" name i)
                (Exp_common.run_one writer
                   (Exp_common.write0 (Printf.sprintf "v%d" i)))
            in
            Stats.Summary.add_int wlat o.latency_us
          done;
          (* 2. single-reader read latency + fast-read fraction *)
          let rlat = Stats.Summary.create () in
          let fast = ref 0 in
          let t0 = Exp_common.now_s () in
          for i = 1 to ops do
            let o =
              ok_exn
                (Printf.sprintf "%s read %d" name i)
                (Exp_common.run_one readers.(0) Exp_common.read0)
            in
            Stats.Summary.add_int rlat o.latency_us;
            if o.rounds = 1 then incr fast
          done;
          let wall = Exp_common.now_s () -. t0 in
          (* 3. concurrent-reader throughput *)
          let sweep =
            List.map
              (fun r ->
                let per = max 1 (ops / r) in
                let check = function
                  | Net.Client.Keyed.Respond { outcome; _ } ->
                      ignore (ok_exn (name ^ " concurrent read") outcome)
                  | Net.Client.Keyed.Invoke _ -> ()
                in
                let engines = List.init r (fun j -> (readers.(j), check)) in
                let t0 = Exp_common.now_s () in
                (* a one-lane engine starts each read once the last has
                   responded *)
                List.iter
                  (fun (e, _) ->
                    for _ = 1 to per do
                      ignore (Net.Cluster.submit e Exp_common.read0)
                    done)
                  engines;
                Net.Cluster.drive cluster engines [];
                (r, r * per, Exp_common.now_s () -. t0))
              reader_counts
          in
          let ran = List.fold_left (fun n (_, k, _) -> n + k) (writes + ops) sweep in
          let violations =
            Fault.Campaign.breaches
              (Exp_common.judge_cluster p cluster ~completed:ran ~total:ran)
          in
          violations_total := !violations_total + violations;
          Exp_common.note
            "  %-12s %s  read p50=%.0fus p99=%.0fus  %.0f ops/s  fast=%.0f%%  \
             violations=%d"
            name
            (Quorum.Config.to_string cfg)
            (Stats.Summary.percentile rlat 50.)
            (Stats.Summary.percentile rlat 99.)
            (float_of_int ops /. wall)
            (100. *. float_of_int !fast /. float_of_int ops)
            violations;
          Printf.bprintf buf
            "    { \"protocol\": \"%s\", \"s\": %d, \"t\": %d, \"b\": %d,\n      "
            name s t b;
          Exp_common.summary_json buf "write" wlat;
          Buffer.add_string buf ",\n      ";
          Exp_common.summary_json buf "read" rlat;
          Printf.bprintf buf
            ",\n      \"read_ops_per_s\": %.1f, \"fast_read_fraction\": %.3f, \
             \"violations\": %d,\n"
            (float_of_int ops /. wall)
            (float_of_int !fast /. float_of_int ops)
            violations;
          Printf.bprintf buf "      \"concurrent\": [\n";
          List.iteri
            (fun i (r, n, wall) ->
              Printf.bprintf buf
                "        { \"readers\": %d, \"ops\": %d, \"wall_s\": %.4f, \
                 \"ops_per_s\": %.1f }%s\n"
                r n wall
                (float_of_int n /. wall)
                (if i = List.length sweep - 1 then "" else ","))
            sweep;
          Printf.bprintf buf "      ] }%s\n"
            (if ci = List.length cells - 1 then "" else ",")))
    cells;
  Printf.bprintf buf "  ],\n  \"violations_total\": %d\n}\n" !violations_total;
  Obs.Export.write_file ~path:out (Buffer.contents buf);
  Exp_common.note "wrote %s" out

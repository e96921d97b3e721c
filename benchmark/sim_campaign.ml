(* sim-campaign: chaos campaigns in the simulator — no sockets, so the
   engine, the automata and the checkers carry all the work, and every
   count is a pure function of the seeds.  Every robust protocol at
   t = b = 1 runs 3 random within-budget fault plans per seed (budget
   "large"), seeds fanned over 2 domains, batch after batch until the
   run's seconds are spent.  It is the workload a change to the network
   layer must leave alone.

   A simulated operation has no wall-clock latency (its latency is in
   virtual time units, the same integers from seed to seed), and there
   is no client, server or codec, so this workload reports throughput,
   CPU and set-up only. *)

let t = 1

let b = 1

let jobs = 2

let plans_per_seed = 3

let batch = 8 (* seeds per sweep *)

let protocols = Fault.Campaign.robust_protocols

let time f =
  let t0 = Spans.now_ns () in
  let x = f () in
  (x, float_of_int (Spans.now_ns () - t0) /. 1e9)

let counter cells name =
  List.fold_left
    (fun acc (c : Fault.Campaign.cell) ->
      acc + Obs.Metrics.counter_value c.metrics name)
    0 cells

let run ~seed ~seconds ~trace ~sp =
  Spans.within sp ~parent:(-1) "bench.sim-campaign" (fun root ->
      let base = seed * 1_000_000 in
      let sweep ?(plans_per_seed = plans_per_seed) ?(protocols = protocols) seeds =
        Spans.within sp ~parent:root "sim.sweep" (fun _ ->
            Fault.Campaign.sweep ~jobs ~budget:Fault.Plan.large ~plans_per_seed
              ~protocols ~t ~b ~seeds ())
      in
      (* Set-up: pool start and the first pooled run. *)
      let setup =
        Array.init 3 (fun i ->
            snd (time (fun () -> sweep ~plans_per_seed:1 ~protocols:[ Fault.Campaign.Safe ] [ base + i ])))
      in
      let cpu0 = Spans.cpu_s () and t0 = Spans.now_ns () in
      let deadline = t0 + int_of_float (seconds *. 1e9) in
      let rec loop k cells =
        if k > 0 && Spans.now_ns () >= deadline then (k, cells)
        else
          let seeds = List.init batch (fun i -> base + 1_000 + (k * batch) + i) in
          loop (k + 1) (sweep seeds @ cells)
      in
      let sweeps, cells = loop 0 [] in
      let wall = float_of_int (Spans.now_ns () - t0) /. 1e9 in
      let cpu = Spans.cpu_s () -. cpu0 in
      let completed = counter cells "op.read.completed" + counter cells "op.write.completed" in
      let pending = counter cells "op.read.open" + counter cells "op.write.open" in
      let runs = sweeps * batch * plans_per_seed * List.length protocols in
      let violations =
        List.length (List.filter (fun c -> Fault.Campaign.cell_verdict c <> "survives") cells)
      in
      let per x n = if n = 0 then 0. else x /. float_of_int n in
      let layer =
        if not trace then []
        else begin
          (* One run at a time, with and without a metrics registry. *)
          let plain = Stat.Sample.create () and metered = Stat.Sample.create () in
          let stop = Spans.now_ns () + int_of_float (0.3 *. seconds *. 1e9) in
          let i = ref 0 in
          while !i = 0 || Spans.now_ns () < stop do
            let s = base + 500_000 + !i in
            List.iter
              (fun p ->
                let cfg = Fault.Campaign.default_cfg p ~t ~b in
                let plan =
                  Fault.Plan.gen ~rng:(Sim.Prng.create ~seed:s) ~cfg ~budget:Fault.Plan.large
                in
                let timed sample metrics =
                  Spans.within sp ~parent:root "sim.run_plan" (fun _ ->
                      let r, dt =
                        time (fun () ->
                            Fault.Campaign.run_plan_result ?metrics p ~cfg ~seed:s plan)
                      in
                      (match r with
                      | Ok _ -> ()
                      | Error e -> failwith ("sim-campaign: " ^ e.Fault.Campaign.error));
                      Stat.Sample.add sample (dt *. 1e6))
                in
                timed plain None;
                timed metered (Some (Obs.Metrics.create ())))
              protocols;
            incr i
          done;
          let plain = Stat.mean (Stat.Sample.to_array plain) in
          let metered = Stat.mean (Stat.Sample.to_array metered) in
          [
            ("sim.msgs_per_op", per (float_of_int (counter cells "engine.delivered")) completed, "msgs/op");
            ("sim.us_per_run", plain, "us");
            ("exec.parallel_eff", per (float_of_int runs /. wall) jobs /. (1e6 /. metered), "fraction");
            ("obs.overhead_pct", 100. *. (1. -. (plain /. metered)), "%");
          ]
        end
      in
      {
        Report.workload = "sim-campaign";
        correct = violations = 0;
        attempted = completed + pending;
        failed = pending;
        e2e =
          [
            ("setup_s", Stat.median setup, "s");
            ("ops_s", float_of_int completed /. wall, "1/s");
            ("cpu_us_per_op", per (cpu *. 1e6) completed, "us");
          ];
        layer;
        notes =
          [
            ("violations", float_of_int violations, "count");
            ("fail_frac", per (float_of_int pending) (completed + pending), "fraction");
            ("runs", float_of_int runs, "count");
          ];
      })

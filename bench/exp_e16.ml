(* E16 -- survival and read latency under live chaos vs fault intensity.

   The paper's robustness claim is binary (within budget the register
   survives); E16 measures what that survival COSTS on real sockets.
   For each fault-intensity level (the maximum number of actions a
   random within-budget plan may contain, 0 = undisturbed baseline) it
   runs E16_PLANS live chaos campaigns — the exact plans the simulator
   sweeps, applied by each object's server to its own frames — and
   reports:

   1. survival rate: fraction of runs with no safety/regularity/
      wait-freedom violation (the paper predicts 1.0 at every level,
      since every generated plan is within budget);
   2. operation completion: completed/total across all runs (failed
      operations at intensity > 0 would show up here first);
   3. read p50/p99 wall-clock latency under chaos, from the merged
      per-run metric registries — the price of the faults;
   4. op.reconnects: how often a client's dial failed, which is how a
      crashed object looks (a partition leaves the connection up and
      drops its frames).

   Latency here is NOT a throughput benchmark: ops run at the
   campaign workload's scheduled times, so the numbers are per-operation
   costs under fault windows, comparable across intensity levels rather
   than against E14/E15 rates.

   One JSON artifact: BENCH_e16.json.  Environment-tunable:
     E16_INTENSITIES (0,2,4,8)        max plan actions per level
     E16_PLANS       (4)              live runs (seeds) per level
     E16_HORIZON     (800)            plan horizon in virtual ticks
     E16_TICK_US     (200)            wall-clock us per virtual tick
     E16_T, E16_B    (1, 1)           resilience budget (S = 2t+b+1)
     E16_OUT         (BENCH_e16.json) output path *)

let intensities () =
  Exp_common.getenv_list "E16_INTENSITIES" [ 0; 2; 4; 8 ] (fun x ->
      match int_of_string_opt x with Some n when n >= 0 -> Some n | _ -> None)

let run () =
  let plans = Exp_common.getenv_int "E16_PLANS" 4 in
  let horizon = Exp_common.getenv_int "E16_HORIZON" 800 in
  let tick_us = Exp_common.getenv_int "E16_TICK_US" 200 in
  let t = Exp_common.getenv_int "E16_T" 1 in
  let b = Exp_common.getenv_int ~min:0 "E16_B" 1 in
  let out = Option.value (Sys.getenv_opt "E16_OUT") ~default:"BENCH_e16.json" in
  let levels = intensities () in
  let protocol = Fault.Campaign.Safe in
  let cfg = Fault.Campaign.default_cfg protocol ~t ~b in
  let live = Net.Live.backend ~opts:{ Net.Live.default_opts with tick_us } () in
  Exp_common.note
    "E16: live chaos cost (%d intensity levels x %d plans, horizon %d x \
     %dus ticks, t=%d b=%d)"
    (List.length levels) plans horizon tick_us t b;
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "{\n  \"experiment\": \"e16\",\n  \"protocol\": \"%s\",\n  \"s\": %d, \
     \"t\": %d, \"b\": %d,\n  \"plans_per_level\": %d,\n  \"horizon\": %d,\n\
    \  \"tick_us\": %d,\n  \"cells\": [\n"
    (Fault.Campaign.protocol_name protocol)
    cfg.Quorum.Config.s t b plans horizon tick_us;
  List.iteri
    (fun li intensity ->
      let budget = { Fault.Plan.horizon; max_actions = intensity } in
      let metrics = Obs.Metrics.create () in
      let survived = ref 0 in
      let completed = ref 0 in
      let total = ref 0 in
      let actions = ref 0 in
      for seed = 1 to plans do
        let plan =
          if intensity = 0 then { Fault.Plan.horizon; actions = [] }
          else Fault.Plan.gen ~rng:(Sim.Prng.create ~seed) ~cfg ~budget
        in
        actions := !actions + Fault.Plan.length plan;
        let v =
          live.Fault.Campaign.backend_run ~metrics protocol ~cfg ~seed plan
        in
        if Fault.Campaign.breaches v = 0 then incr survived;
        completed := !completed + v.Fault.Campaign.completed;
        total := !total + v.Fault.Campaign.total
      done;
      let reads = Obs.Metrics.find_histogram metrics "op.read.latency_us" in
      let writes = Obs.Metrics.find_histogram metrics "op.write.latency_us" in
      let reconnects = Obs.Metrics.counter_value metrics "op.reconnects" in
      let rate = float_of_int !survived /. float_of_int plans in
      Exp_common.note
        "  intensity<=%-2d survival=%d/%d  ops=%d/%d  read p50=%.0fus \
         p99=%.0fus  reconnects=%d"
        intensity !survived plans !completed !total
        (Exp_common.quantile_or_zero reads 50.)
        (Exp_common.quantile_or_zero reads 99.)
        reconnects;
      Printf.bprintf buf
        "    { \"max_actions\": %d, \"plans\": %d, \"plan_actions\": %d,\n\
        \      \"survived\": %d, \"survival_rate\": %.3f,\n\
        \      \"ops_completed\": %d, \"ops_total\": %d,\n\
        \      \"read_p50_us\": %.0f, \"read_p99_us\": %.0f,\n\
        \      \"write_p99_us\": %.0f, \"reconnects\": %d }%s\n"
        intensity plans !actions !survived rate !completed !total
        (Exp_common.quantile_or_zero reads 50.)
        (Exp_common.quantile_or_zero reads 99.)
        (Exp_common.quantile_or_zero writes 99.)
        reconnects
        (if li = List.length levels - 1 then "" else ","))
    levels;
  Printf.bprintf buf "  ]\n}\n";
  Obs.Export.write_file ~path:out (Buffer.contents buf);
  Exp_common.note "wrote %s" out

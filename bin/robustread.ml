(* robustread — command-line driver for the robust-storage simulator.

     robustread info -t 2 -b 1
     robustread run --protocol safe -t 1 -b 1 --writes 3 --reads 5 --attack forge
     robustread lower-bound --protocol naive-fast -t 1 -b 1
     robustread check --protocol regular

   See README.md for a tour. *)

open Cmdliner

(* Seconds on the monotonic clock: run timings that a wall-clock step
   must not stretch or shrink. *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ----- shared argument parsing ----------------------------------------- *)

let t_arg =
  Arg.(value & opt int 1 & info [ "t" ] ~docv:"T" ~doc:"Failure bound t.")

let b_arg =
  Arg.(value & opt int 1 & info [ "b" ] ~docv:"B" ~doc:"Byzantine bound b (<= t).")

let s_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "s" ] ~docv:"S" ~doc:"Number of base objects (default 2t+b+1).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel execution (default: the number of \
           cores).  Results are byte-identical whatever $(docv) is; $(b,1) \
           forces the serial path.")

(* Every command names protocols the way the protocol table does. *)
let protocol_conv =
  Arg.enum
    (List.map
       (fun p -> (Fault.Campaign.protocol_name p, p))
       Fault.Campaign.protocols)

let protocol_names protocols =
  String.concat ", "
    (List.map
       (fun p -> "$(b," ^ Fault.Campaign.protocol_name p ^ ")")
       protocols)

let protocol_info doc = Arg.info [ "protocol"; "p" ] ~docv:"PROTO" ~doc

let protocol_arg =
  Arg.(
    value
    & opt protocol_conv Fault.Campaign.Safe
    & protocol_info ("Protocol: " ^ protocol_names Fault.Campaign.protocols ^ "."))

(* A live command's protocol: the table entry and its wire pack.  A
   protocol without a codec exits 2. *)
let wire_pack p =
  match Net.Live.protocol_of p with
  | Some pack -> pack
  | None ->
      Format.eprintf
        "robustread: protocol %s has no wire codec and cannot run live@."
        (Fault.Campaign.protocol_name p);
      exit 2

let net_protocol_arg =
  Term.(
    const (fun p -> (p, wire_pack p))
    $ Arg.(
        value & opt protocol_conv Fault.Campaign.Safe
        & protocol_info
            ("Protocol to serve: "
            ^ protocol_names
                (List.filter
                   (fun p -> Net.Live.protocol_of p <> None)
                   Fault.Campaign.protocols)
            ^ ".")))

(* [None] is no attack; the others resolve through the protocol's
   strategy in the table. *)
let attack_arg =
  let attacks =
    ("none", None)
    :: List.map
         (fun k -> (Fault.Plan.kind_to_string k, Some k))
         Fault.Plan.[ Forge; Replay; Simulate; Defame; Garbage ]
  in
  Arg.(
    value
    & opt (enum attacks) None
    & info [ "attack" ] ~docv:"ATTACK"
        ~doc:
          "Byzantine strategy for the first $(i,b) objects: $(b,none), \
           $(b,forge), $(b,replay), $(b,simulate), $(b,defame) or \
           $(b,garbage).")

let delay_arg =
  let parse s =
    match String.split_on_char ':' s with
    | [ "const"; d ] -> Ok (Sim.Delay.constant (int_of_string d))
    | [ "uniform"; lo; hi ] ->
        Ok (Sim.Delay.uniform ~lo:(int_of_string lo) ~hi:(int_of_string hi))
    | [ "exp"; m ] -> Ok (Sim.Delay.exponential ~mean:(float_of_string m))
    | _ -> Error (`Msg "expected const:D, uniform:LO:HI or exp:MEAN")
  in
  let print ppf _ = Format.pp_print_string ppf "<delay>" in
  Arg.(
    value
    & opt (conv (parse, print)) (Sim.Delay.uniform ~lo:1 ~hi:10)
    & info [ "delay" ] ~docv:"MODEL"
        ~doc:"Delay model: $(b,const:D), $(b,uniform:LO:HI) or $(b,exp:MEAN).")

(* Shared up-front validation: every command that simulates a supposedly
   robust system refuses to start below the resilience lower bound,
   instead of producing a run whose failures would be meaningless.  The
   deliberately under-provisioned regimes (lower-bound, the naive-fast
   negative control in chaos campaigns) opt out explicitly. *)
let ensure_resilience_bound ?(allow_under_provisioned = false) cfg =
  if
    (not allow_under_provisioned)
    && not (Quorum.Config.meets_resilience_bound cfg)
  then begin
    let t = cfg.Quorum.Config.t and b = cfg.Quorum.Config.b in
    Format.eprintf
      "robustread: S = %d is below the resilience lower bound 2t + b + 1 = %d \
       for t = %d, b = %d:@.no robust wait-free storage exists at this size \
       (paper Section 1).  Use -s %d or more,@.or 'robustread lower-bound' to \
       replay the impossibility itself.@."
      cfg.Quorum.Config.s
      (Quorum.Config.optimal_s ~t ~b)
      t b
      (Quorum.Config.optimal_s ~t ~b);
    exit 2
  end;
  cfg

let config ?allow_under_provisioned ~s ~t ~b () =
  let s = Option.value s ~default:(Quorum.Config.optimal_s ~t ~b) in
  match Quorum.Config.make ~s ~t ~b with
  | Ok cfg -> ensure_resilience_bound ?allow_under_provisioned cfg
  | Error e ->
      Format.eprintf "robustread: invalid configuration: %s@." e;
      exit 2

(* Out-of-range input is a one-line usage error (exit 2), not an
   uncaught exception or a silent fallback: each pair is a test that
   fails the input and its message. *)
let reject_bad_input checks =
  List.iter
    (fun (bad, msg) ->
      if bad then begin
        Format.eprintf "robustread: %s@." msg;
        exit 2
      end)
    checks

let check_workload ~writes ~readers ~reads =
  reject_bad_input
    [
      (writes < 0, "--writes must be >= 0");
      (readers < 0, "--readers must be >= 0");
      (reads < 0, "--reads must be >= 0");
    ]

(* ----- info ------------------------------------------------------------- *)

let info_cmd =
  let run t b s =
    let cfg = config ~allow_under_provisioned:true ~s ~t ~b () in
    Format.printf "configuration      : %a@." Quorum.Config.pp cfg;
    Format.printf "optimal resilience : S >= %d (2t+b+1)%s@."
      (Quorum.Config.optimal_s ~t ~b)
      (if Quorum.Config.is_optimally_resilient cfg then "  [exactly optimal]"
       else "");
    Format.printf "round quorum       : S - t = %d@." (Quorum.Config.quorum cfg);
    Format.printf "safe vouchers      : b + 1 = %d@." (b + 1);
    Format.printf "dissent threshold  : t + b + 1 = %d@." (t + b + 1);
    let fast_s = (2 * t) + (2 * b) + 1 in
    if Quorum.Config.fast_read_admissible cfg then
      Format.printf
        "one-round reads    : every read, despite b lies (S >= 2t+2b+1 = %d)@."
        fast_s
    else
      Format.printf
        "one-round reads    : each read unless a lie or an overlapping write \
         blocks it (every read needs S >= 2t+2b+1 = %d)@."
        fast_s;
    Format.printf "quorum intersection: %b; write persistence: %b@."
      (Quorum.Intersect.check_byzantine_intersection cfg)
      (Quorum.Intersect.check_write_persistence cfg)
  in
  let term = Term.(const run $ t_arg $ b_arg $ s_arg) in
  Cmd.v (Cmd.info "info" ~doc:"Print the resilience arithmetic for (t, b, S).")
    term

(* ----- run --------------------------------------------------------------- *)

(* Standard CLI workload: [writes] sequential writes observed by
   [readers] readers, plus [reads] extra random reads per reader. *)
let cli_schedule ~seed ~writes ~readers ~reads =
  let rng = Sim.Prng.create ~seed in
  Core.Schedule.merge
    (Workload.Generate.sequential ~writes ~readers ~gap:60)
    (Workload.Generate.read_mostly ~rng ~writes:0 ~readers
       ~reads_per_reader:reads ~horizon:(60 * (writes + 2) * (readers + 1)))

let write_artifacts ~dir files =
  (try Unix.mkdir dir 0o755 with
  | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | Unix.Unix_error (e, _, _) ->
      Format.eprintf "robustread: cannot create %s: %s@." dir
        (Unix.error_message e);
      exit 2);
  List.iter
    (fun (name, contents) ->
      let path = Filename.concat dir name in
      Obs.Export.write_file ~path contents;
      Format.eprintf "wrote %s@." path)
    files

(* The first b objects run [attack]'s strategy: [cast obj factory] is
   the scenario's fault for each. *)
let byzantine ~cfg ~cast strategy = function
  | None -> []
  | Some kind ->
      let f = strategy kind in
      List.init cfg.Quorum.Config.b (fun i -> cast (i + 1) f)

(* The claimed property's verdict, e.g. ["safety: OK"]. *)
let claim_verdict protocol (v : Fault.Campaign.verdict) =
  Printf.sprintf "%s: %s"
    (Histories.Checks.claim_name (Fault.Campaign.contract protocol).claim)
    (match v.violations with
    | [] -> "OK"
    | vs -> Printf.sprintf "%d VIOLATIONS" (List.length vs))

(* Each violation of the claim (with its key on a keyspace), then a
   rounds line only if some operation ran past its protocol's bound. *)
let print_violations ~keyed protocol (v : Fault.Campaign.verdict) =
  List.iter
    (fun (key, x) ->
      Format.printf "  %sviolation: %a@."
        (if keyed then Printf.sprintf "key %d " key else "")
        (Histories.Checks.pp_violation ~pp_value:Format.pp_print_string)
        x)
    v.violations;
  if v.rounds > 0 then
    let c = Fault.Campaign.contract protocol in
    Format.printf "rounds: %d operations over the bound (write %d, read %s)@."
      v.rounds c.write_rounds
      (Option.fold ~none:"none" ~some:string_of_int c.read_rounds)

let writes_arg =
  Arg.(value & opt int 3 & info [ "writes" ] ~docv:"N" ~doc:"Number of writes.")

let readers_arg =
  Arg.(value & opt int 2 & info [ "readers" ] ~docv:"R" ~doc:"Number of readers.")

let reads_arg =
  Arg.(
    value & opt int 4
    & info [ "reads" ] ~docv:"N" ~doc:"Extra random reads per reader.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print (and with --artifacts export) the metrics: round-count and \
           latency histograms, wire counters, queue depth.  $(b,cluster) \
           always meters; the other commands meter only under this flag.")

let artifacts_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "artifacts" ] ~docv:"DIR"
        ~doc:"Write span/metrics/trace JSONL artifacts into $(docv).")

let run_cmd =
  let trace_arg =
    Arg.(value & flag & info [ "trace" ] ~doc:"Dump the full message trace.")
  in
  let run protocol t b s seed delay attack writes readers reads trace metrics
      artifacts =
    check_workload ~writes ~readers ~reads;
    let cfg = config ~s ~t ~b () in
    (* artifacts always need the raw trace to link spans to entries *)
    let trace = trace || artifacts <> None in
    let (Fault.Campaign.Entry { automata = (module P); strategy; _ }) =
      Fault.Campaign.entry protocol
    in
    let module Sc = Core.Scenario.Make (P) in
    let schedule = cli_schedule ~seed ~writes ~readers ~reads in
    let registry = if metrics then Some (Obs.Metrics.create ()) else None in
    let rep =
      Sc.run ~trace ?metrics:registry
        ?clock:(if metrics then Some now_s else None)
        ~cfg ~seed ~delay
        ~faults:
          (byzantine ~cfg strategy attack ~cast:(fun obj factory ->
               Sc.Byzantine { obj; factory }))
        schedule
    in
    Format.printf "protocol %s on %a, seed %d@." P.name Quorum.Config.pp cfg seed;
    let completed = Histories.Op.completed rep.history in
    List.iter
      (fun (op : string Histories.Op.t) ->
        let rounds = Option.get op.rounds and latency = Histories.Op.latency op in
        match op.action with
        | Write { value; _ } ->
            Format.printf "  [%6d] write(%s) rounds=%d latency=%d@."
              op.invoked_at value rounds latency
        | Read { reader; result } ->
            Format.printf "  [%6d] read(r%d) = %a rounds=%d latency=%d@."
              op.invoked_at reader
              (Histories.Op.pp_result ~pp_value:Format.pp_print_string)
              result rounds latency)
      completed;
    let v =
      Fault.Campaign.judge protocol ~quiescent:rep.quiescent
        ~completed:(List.length completed) ~total:(List.length schedule)
        [ (0, rep.history) ]
    in
    Format.printf "completed %d/%d operations; %d messages delivered@."
      v.completed v.total rep.messages_delivered;
    Format.printf "%s@." (claim_verdict protocol v);
    print_violations ~keyed:false protocol v;
    (match rep.trace with
    | Some tr -> Format.printf "--- trace ---@.%a" Sim.Trace.pp tr
    | None -> ());
    (match registry with
    | Some reg ->
        Format.printf "--- metrics ---@.%s"
          (Stats.Table.to_string (Obs.Metrics.table reg))
    | None -> ());
    (match artifacts with
    | Some dir ->
        let files =
          [ ("spans.jsonl", Obs.Export.spans_jsonl rep.spans) ]
          @ (match registry with
            | Some reg -> [ ("metrics.jsonl", Obs.Export.metrics_jsonl reg) ]
            | None -> [])
          @
          match rep.trace with
          | Some tr -> [ ("trace.jsonl", Sim.Trace.to_jsonl tr) ]
          | None -> []
        in
        write_artifacts ~dir files
    | None -> ());
    if Fault.Campaign.breaches v > 0 then exit 1
  in
  let term =
    Term.(
      const run $ protocol_arg $ t_arg $ b_arg $ s_arg $ seed_arg $ delay_arg
      $ attack_arg $ writes_arg $ readers_arg $ reads_arg $ trace_arg
      $ metrics_arg $ artifacts_arg)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run a simulated workload on a protocol, print per-operation \
          results and check the history.")
    term

(* ----- trace ------------------------------------------------------------- *)

let trace_cmd =
  let out_arg =
    Arg.(
      value & opt string "-"
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Write the span JSONL to $(docv) instead of stdout.")
  in
  let raw_arg =
    Arg.(
      value & flag
      & info [ "raw" ]
          ~doc:
            "Also emit the raw message-trace entries (the low-level events \
             each span's trace_first/trace_len indexes into).")
  in
  let run protocol t b s seed delay attack writes readers reads out raw =
    check_workload ~writes ~readers ~reads;
    let cfg = config ~s ~t ~b () in
    let (Fault.Campaign.Entry { automata = (module P); strategy; _ }) =
      Fault.Campaign.entry protocol
    in
    let module Sc = Core.Scenario.Make (P) in
    let schedule = cli_schedule ~seed ~writes ~readers ~reads in
    let rep =
      Sc.run ~trace:true ~cfg ~seed ~delay
        ~faults:
          (byzantine ~cfg strategy attack ~cast:(fun obj factory ->
               Sc.Byzantine { obj; factory }))
        schedule
    in
    let payload =
      Obs.Export.spans_jsonl rep.spans
      ^
      match (raw, rep.trace) with
      | true, Some tr -> Sim.Trace.to_jsonl tr
      | _ -> ""
    in
    (match out with
    | "-" -> print_string payload
    | path ->
        Obs.Export.write_file ~path payload;
        Format.eprintf "wrote %s@." path);
    let completed = List.length (List.filter Obs.Span.completed rep.spans) in
    match rep.trace with
    | Some tr ->
        let st = Sim.Trace.stats tr in
        Format.eprintf "%d spans (%d completed); %d sends, %d delivers, %d drops@."
          (List.length rep.spans) completed st.Sim.Trace.sends st.delivers
          st.drops
    | None -> ()
  in
  let term =
    Term.(
      const run $ protocol_arg $ t_arg $ b_arg $ s_arg $ seed_arg $ delay_arg
      $ attack_arg $ writes_arg $ readers_arg $ reads_arg $ out_arg $ raw_arg)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a simulated workload and export one deterministic JSONL span \
          per operation (proc, start/end, round transitions, contacted \
          objects, links into the raw trace).  Byte-identical across runs \
          with the same parameters; the golden-trace tests pin it.")
    term

(* ----- lower-bound -------------------------------------------------------- *)

let lower_bound_cmd =
  let run protocol t b =
    let (Fault.Campaign.Entry { automata = (module P); signed; _ }) =
      Fault.Campaign.entry protocol
    in
    if signed then
      print_endline
        "the authenticated baseline is exempt: run5's forged state would \
         contain a signature over a never-written value"
    else
      let module LB = Mc.Lower_bound.Make (P) in
      let o = LB.analyse ~t ~b ~value:(Core.Value.v "v1") in
      List.iter print_endline o.transcript;
      print_newline ();
      List.iter print_endline (LB.figure o);
      match o.verdict with LB.Not_fast -> () | _ -> exit 1
  in
  let term = Term.(const run $ protocol_arg $ t_arg $ b_arg) in
  Cmd.v
    (Cmd.info "lower-bound"
       ~doc:
         "Replay the Proposition 1 construction (Figure 1) against a \
          protocol on S = 2t+2b objects.  Exits 1 if the protocol is fast \
          (and therefore violates safety).")
    term

(* ----- check --------------------------------------------------------------- *)

let check_cmd =
  let budget_arg =
    Arg.(
      value & opt int 1_000_000
      & info [ "budget" ] ~docv:"STATES" ~doc:"Model-checker state budget.")
  in
  let run protocol t b budget =
    reject_bad_input [ (budget < 1, "--budget must be >= 1") ];
    let cfg = config ~s:None ~t ~b () in
    let (Fault.Campaign.Entry { automata = (module P); contract; _ }) =
      Fault.Campaign.entry protocol
    in
    let module E = Mc.Explorer.Make (P) in
    let r =
      E.check ~max_states:budget ~contract
        {
          E.cfg = cfg;
          writes = [ Core.Value.v "a" ];
          reads = [ (1, 1) ];
          sequential = true;
          byz = [];
          crashed = [];
        }
    in
    Format.printf "explored %d states, %d terminal histories, truncated: %b@."
      r.explored r.terminals r.truncated;
    List.iter
      (fun (v : E.violation) -> Format.printf "violation [%s]: %s@." v.kind v.detail)
      r.violations;
    if r.violations <> [] then exit 1;
    if r.truncated then begin
      Format.printf
        "not exhaustive: the search stopped at the state budget; raise \
         --budget@.";
      exit 3
    end
  in
  let term = Term.(const run $ protocol_arg $ t_arg $ b_arg $ budget_arg) in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Model-check one write followed by one read for the protocol over \
          message delivery orders, holding every terminal history to the \
          protocol's claim and round bounds.  The search is exhaustive only when \
          it reports $(b,truncated: false).  Exits 1 on a violation, and 3 \
          if the search found none but stopped at the state budget.")
    term

(* ----- walks ------------------------------------------------------------- *)

let walks_cmd =
  let walks_arg =
    Arg.(
      value & opt int 2000
      & info [ "walks" ] ~docv:"N" ~doc:"Number of random schedules to sample.")
  in
  let run protocol t b seed walks jobs =
    reject_bad_input [ (walks < 1, "--walks must be >= 1") ];
    let cfg = config ~s:None ~t ~b () in
    let (Fault.Campaign.Entry { automata = (module P); contract; _ }) =
      Fault.Campaign.entry protocol
    in
    let module E = Mc.Explorer.Make (P) in
    let r =
      E.random_walks ?jobs ~walks ~contract ~seed
        {
          E.cfg = cfg;
          writes = [ Core.Value.v "a"; Core.Value.v "b" ];
          reads = [ (1, 2); (2, 2) ];
          sequential = false;
          byz = [];
          crashed = [];
        }
    in
    Format.printf "sampled %d schedules (%d delivery steps); violations: %d@."
      r.terminals r.explored (List.length r.violations);
    List.iter
      (fun (v : E.violation) -> Format.printf "violation [%s]: %s@." v.kind v.detail)
      r.violations;
    if r.violations <> [] then exit 1
  in
  let term =
    Term.(
      const run $ protocol_arg $ t_arg $ b_arg $ seed_arg $ walks_arg
      $ jobs_arg)
  in
  Cmd.v
    (Cmd.info "walks"
       ~doc:
         "Monte-Carlo check: sample random delivery schedules of a 2-write, \
          4-read workload and verify every terminal history.")
    term

(* ----- chaos ------------------------------------------------------------- *)

let chaos_cmd =
  let protocols_arg =
    Arg.(
      value
      & opt (some protocol_conv) None
      & protocol_info
          ("Campaign a single protocol: "
          ^ protocol_names Fault.Campaign.protocols
          ^ ".  Default: "
          ^ protocol_names Fault.Campaign.campaign_protocols
          ^ " (under $(b,--backend=live), those of them with a wire codec)."))
  in
  let seeds_arg =
    Arg.(
      value & opt int 20
      & info [ "seeds" ] ~docv:"N" ~doc:"Number of seeds to sweep (1..N).")
  in
  let plans_arg =
    Arg.(
      value & opt int 3
      & info [ "plans" ] ~docv:"K" ~doc:"Random fault plans per seed.")
  in
  let budget_arg =
    let budget_conv =
      Arg.conv
        ( (fun s ->
            match Fault.Plan.budget_of_string s with
            | Some bg -> Ok bg
            | None -> Error (`Msg "expected small, medium or large")),
          fun ppf (bg : Fault.Plan.budget) ->
            Format.fprintf ppf "horizon=%d,actions<=%d" bg.horizon bg.max_actions
        )
    in
    Arg.(
      value
      & opt budget_conv Fault.Plan.medium
      & info [ "budget" ] ~docv:"SIZE"
          ~doc:
            "Plan size: $(b,small) (horizon 800, <= 4 actions), $(b,medium) \
             (1500, <= 8) or $(b,large) (3000, <= 14).")
  in
  let no_shrink_arg =
    Arg.(
      value & flag
      & info [ "no-shrink" ] ~doc:"Do not minimize failure witnesses.")
  in
  let backend_arg =
    Arg.(
      value
      & opt (enum [ ("sim", `Sim); ("live", `Live) ]) `Sim
      & info [ "backend" ] ~docv:"B"
          ~doc:
            "Execution backend: $(b,sim) runs plans in the deterministic \
             simulator; $(b,live) injects the same plans into a real socket \
             cluster, each object's server applying its faults in its own \
             event loop (crashes become real process restarts, partitions \
             become dropped frames).")
  in
  let tick_arg =
    Arg.(
      value
      & opt int Net.Live.default_opts.tick_us
      & info [ "tick-us" ] ~docv:"US"
          ~doc:
            "Live backend pacing: wall-clock microseconds per virtual plan \
             tick.")
  in
  let run protocol t b seeds plans budget no_shrink backend tick_us metrics
      artifacts jobs =
    reject_bad_input
      [
        (seeds < 1, "--seeds must be >= 1"); (plans < 1, "--plans must be >= 1");
      ];
    (* Same validator as run/check; the campaign's own configurations are
       per-protocol, with naive-fast deliberately under-provisioned. *)
    let _ = config ~s:None ~t ~b () in
    let live = backend = `Live in
    let protocols =
      match protocol with
      | Some p ->
          if live then ignore (wire_pack p);
          [ p ]
      | None ->
          (* The symbolic-only baselines have no wire codec; a live
             campaign quietly sweeps the protocols that do. *)
          List.filter
            (fun p -> (not live) || Net.Live.protocol_of p <> None)
            Fault.Campaign.campaign_protocols
    in
    List.iter
      (fun p ->
        ignore
          (ensure_resilience_bound
             ~allow_under_provisioned:(not (Fault.Campaign.robust p))
             (Fault.Campaign.default_cfg p ~t ~b)))
      protocols;
    let seeds = List.init seeds (fun i -> i + 1) in
    let campaign_backend =
      if live then Net.Live.backend ~opts:{ Net.Live.default_opts with tick_us } ()
      else Fault.Campaign.sim_backend
    in
    (* A live run monopolises sockets, threads and the wall clock; domain
       parallelism would just make runs contend.  Force one job. *)
    let jobs = if live then Some 1 else jobs in
    Format.printf
      "chaos campaign [%s]: %d protocols x %d seeds x %d plans (t=%d, b=%d, \
       jobs=%d)@."
      campaign_backend.Fault.Campaign.backend_name (List.length protocols)
      (List.length seeds) plans t b
      (Option.value jobs ~default:(Exec.Pool.recommended_jobs ()));
    let cells =
      Fault.Campaign.sweep ?jobs ~backend:campaign_backend ~budget
        ~plans_per_seed:plans ~protocols ~t ~b ~seeds ()
    in
    print_string (Stats.Table.to_string (Fault.Campaign.matrix_table cells));
    if metrics then begin
      Format.printf "@.per-cell observability (round distributions are r:count):@.";
      print_string (Stats.Table.to_string (Fault.Campaign.metrics_table cells))
    end;
    (match artifacts with
    | Some dir ->
        write_artifacts ~dir
          (( "survival.jsonl",
             Fault.Campaign.matrix_jsonl
               ~backend:campaign_backend.Fault.Campaign.backend_name cells )
          :: List.map
               (fun (c : Fault.Campaign.cell) ->
                 let name = Fault.Campaign.protocol_name c.protocol in
                 ( name ^ ".metrics.jsonl",
                   Obs.Export.metrics_jsonl
                     ~labels:
                       [
                         ("protocol", name);
                         ("cfg", Quorum.Config.to_string c.cfg);
                       ]
                     c.metrics ))
               cells)
    | None -> ());
    let unexpected = ref false in
    (* Cells that aborted (engine exception rather than a clean verdict)
       are reported structurally — protocol, seed, offending plan, error —
       instead of having killed the whole sweep. *)
    List.iter
      (fun (c : Fault.Campaign.cell) ->
        List.iter
          (fun (e : Fault.Campaign.cell_error) ->
            unexpected := true;
            Format.printf "@.%s cell ERROR (seed %d):@.  plan : %s@.  error: %s@."
              (Fault.Campaign.protocol_name c.protocol)
              e.seed
              (Fault.Plan.to_compact e.plan)
              e.error)
          c.errors)
      cells;
    List.iter
      (fun (c : Fault.Campaign.cell) ->
        match c.failures with
        | [] -> ()
        | (seed, plan) :: _ ->
            let p = c.protocol in
            let expected = not (Fault.Campaign.robust p) in
            if not expected then unexpected := true;
            Format.printf "@.%s broke%s — first witness (seed %d):@.  %s@."
              (Fault.Campaign.protocol_name p)
              (if expected then " (as Proposition 1 predicts)" else "")
              seed
              (Fault.Plan.to_compact plan);
            if not no_shrink then begin
              (* Shrinking always runs against the SIMULATOR repro: for a
                 live-found witness this is the cross-backend bridge —
                 the (protocol, cfg, seed, plan) coordinates replay
                 deterministically in sim, so the minimal witness is
                 stable even though the live run is not. *)
              let repro = Fault.Campaign.violates p ~cfg:c.cfg ~seed in
              let reproduces = (not live) || repro plan in
              if live then
                Format.printf "live-to-sim replay: %s@."
                  (if reproduces then
                     "reproduces — shrinking against the simulator"
                   else
                     "does NOT reproduce (timing-dependent); keeping the \
                      live witness unshrunk");
              if reproduces then begin
                let o = Fault.Shrink.minimize ~repro plan in
                Format.printf
                  "shrunk %d -> %d actions in %d runs (%d still violating):@.  \
                   %s@."
                  (Fault.Plan.length plan)
                  (Fault.Plan.length o.plan)
                  o.attempts o.reproductions
                  (Fault.Plan.to_compact o.plan);
                Format.printf
                  "replay: deterministic for (protocol=%s, %s, seed=%d) — verified %s@."
                  (Fault.Campaign.protocol_name p)
                  (Quorum.Config.to_string c.cfg)
                  seed
                  (if repro o.plan then "OK" else "FAILED")
              end
            end)
      cells;
    if !unexpected then exit 1
  in
  let term =
    Term.(
      const run $ protocols_arg $ t_arg $ b_arg $ seeds_arg $ plans_arg
      $ budget_arg $ no_shrink_arg $ backend_arg $ tick_arg $ metrics_arg
      $ artifacts_arg $ jobs_arg)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Sweep random within-budget fault plans (crashes, recoveries, \
          partitions, duplication, Byzantine switches) over the protocols, \
          print the survival matrix, and shrink any failure to a minimal \
          deterministic witness.  With $(b,--backend=live) the same plans \
          drive a real socket cluster whose servers apply them to their \
          own frames, and any counterexample is replayed and shrunk in the \
          simulator.  Exits 1 \
          if a robust protocol breaks; naive-fast breaking is the expected \
          Proposition 1 control.")
    term

(* ----- live network commands (serve / client / cluster) ------------------- *)

let endpoint_conv =
  Arg.conv
    ( (fun s -> Result.map_error (fun e -> `Msg e) (Net.Endpoint.of_string s)),
      Net.Endpoint.pp )

let client_opts_args =
  let deadline_arg =
    Arg.(
      value
      & opt float Net.Client.default_opts.deadline
      & info [ "deadline" ] ~docv:"SEC"
          ~doc:"Per-round deadline before a retransmit (seconds).")
  in
  let retries_arg =
    Arg.(
      value
      & opt int Net.Client.default_opts.retries
      & info [ "retries" ] ~docv:"N"
          ~doc:"Retransmit attempts before an operation fails.")
  in
  let backoff_arg =
    Arg.(
      value
      & opt float Net.Client.default_opts.backoff
      & info [ "backoff" ] ~docv:"SEC"
          ~doc:"Base retry backoff, doubled per attempt (seconds).")
  in
  Term.(
    const (fun deadline retries backoff ->
        { Net.Client.deadline; retries; backoff })
    $ deadline_arg $ retries_arg $ backoff_arg)

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "Worker domains for the server group's event loops: base object \
           $(i,i) and every connection accepted for it are owned by domain \
           ($(i,i)-1) mod $(docv), so all automaton steps stay domain-local \
           (at least 1; more than S run S).")

(* Protocol requests the clients sent per completed op: the sum of the
   wire.*.req.sent counters over completed reads and writes — the
   figure quorum-sized rounds cut (S−t per round, not S). *)
let print_requests_per_op reg =
  let sent = Obs.Metrics.requests_sent reg in
  let ops =
    Obs.Metrics.counter_value reg "op.read.completed"
    + Obs.Metrics.counter_value reg "op.write.completed"
  in
  if ops > 0 then
    Format.printf "requests/op: %.2f (%d requests, %d completed ops)@."
      (float_of_int sent /. float_of_int ops)
      sent ops

(* What a live command reports at exit: with a registry (passed only
   under --metrics), requests per op and the metrics table; then the
   --artifacts files. *)
let live_report ~artifacts ~spans registry =
  Option.iter
    (fun reg ->
      print_requests_per_op reg;
      Format.printf "--- metrics ---@.%s"
        (Stats.Table.to_string (Obs.Metrics.table reg)))
    registry;
  Option.iter
    (fun dir ->
      write_artifacts ~dir
        (("spans.jsonl", Obs.Export.spans_jsonl spans)
        :: Option.to_list
             (Option.map
                (fun reg -> ("metrics.jsonl", Obs.Export.metrics_jsonl reg))
                registry)))
    artifacts

let print_outcome kind (o : Net.Client.outcome) =
  Format.printf "  %s%s rounds=%d retransmits=%d latency=%dus@." kind
    (match o.value with
    | Some v -> " = " ^ Core.Value.to_string v
    | None -> "")
    o.rounds o.retransmits o.latency_us

let serve_cmd =
  let index_arg =
    Arg.(
      value & opt int 1
      & info [ "index"; "i" ] ~docv:"I"
          ~doc:"1-based base-object index this server hosts.")
  in
  let endpoint_arg =
    Arg.(
      value
      & opt endpoint_conv (Net.Endpoint.Tcp { host = "127.0.0.1"; port = 0 })
      & info [ "endpoint"; "e" ] ~docv:"EP"
          ~doc:
            "Address to bind: $(b,unix:/path.sock), $(b,tcp:host:port) or \
             $(b,host:port).  TCP port 0 picks an ephemeral port and prints \
             it.")
  in
  let run (_, protocol) t b s index endpoint metrics artifacts =
    let cfg = config ~s ~t ~b () in
    if index < 1 || index > cfg.Quorum.Config.s then begin
      Format.eprintf "robustread: --index %d out of range 1..%d@." index
        cfg.Quorum.Config.s;
      exit 2
    end;
    let registry = if metrics then Some (Obs.Metrics.create ()) else None in
    let server =
      Net.Server.start ?metrics:registry ~protocol ~cfg ~index endpoint
    in
    Format.printf "serving object %d of %a (%s) on %a@." index Quorum.Config.pp
      cfg
      (Net.Protocols.name protocol)
      Net.Endpoint.pp
      (Net.Server.endpoint server);
    Format.print_flush ();
    (* Block until SIGINT/SIGTERM, then drain gracefully. *)
    let stop = Atomic.make false in
    let on_signal _ = Atomic.set stop true in
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
     with Invalid_argument _ -> ());
    (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
     with Invalid_argument _ -> ());
    while not (Atomic.get stop) do
      Thread.delay 0.2
    done;
    Net.Server.stop server;
    let st = Net.Server.stats server in
    Format.printf "served %d connections, %d messages@." st.connections
      st.messages;
    live_report ~artifacts ~spans:[] registry
  in
  let term =
    Term.(
      const run $ net_protocol_arg $ t_arg $ b_arg $ s_arg $ index_arg
      $ endpoint_arg $ metrics_arg $ artifacts_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Host one base object over a socket until SIGINT/SIGTERM.  Start S \
          of these (distinct --index, one endpoint each) to form a cluster \
          for 'robustread client'.")
    term

(* The endpoints of a fleet's S base objects, in object order; a count
   other than S exits 2. *)
let endpoints_arg =
  Arg.(
    value
    & opt_all endpoint_conv []
    & info [ "endpoint"; "e" ] ~docv:"EP"
        ~doc:
          "Base-object endpoints, in object order; repeat S times \
           ($(b,unix:/path.sock), $(b,tcp:host:port) or $(b,host:port)).")

let fleet_endpoints cfg endpoints =
  if List.length endpoints <> cfg.Quorum.Config.s then begin
    Format.eprintf
      "robustread: %d endpoints given but the configuration has S = %d \
       objects (repeat --endpoint once per object)@."
      (List.length endpoints) cfg.Quorum.Config.s;
    exit 2
  end;
  Array.of_list endpoints

let transport_arg =
  Arg.(
    value
    & opt (enum [ ("unix", `Unix); ("tcp", `Tcp) ]) `Unix
    & info [ "transport" ] ~docv:"KIND"
        ~doc:"Socket flavour: $(b,unix) (default) or $(b,tcp) loopback.")

let client_cmd =
  let role_arg =
    let role_conv =
      Arg.conv
        ( (fun s ->
            match
              if s = "writer" then Some Sim.Proc_id.Writer
              else Sim.Proc_id.of_string s
            with
            | Some Sim.Proc_id.Writer -> Ok `Writer
            | Some (Sim.Proc_id.Reader j) -> Ok (`Reader j)
            | Some (Sim.Proc_id.Obj _) | None ->
                Error
                  (`Msg (Printf.sprintf "bad role %S (writer, r1, r2, ...)" s))),
          fun ppf -> function
            | `Writer -> Format.pp_print_string ppf "writer"
            | `Reader j -> Format.fprintf ppf "r%d" j )
    in
    Arg.(
      value & opt role_conv `Writer
      & info [ "role" ] ~docv:"ROLE"
          ~doc:"Which client to run: $(b,writer) or reader $(b,rN).")
  in
  let ops_arg =
    Arg.(
      value & opt int 1
      & info [ "ops"; "n" ] ~docv:"N"
          ~doc:"Operations to run (writes for the writer, reads for a reader).")
  in
  let value_arg =
    Arg.(
      value & opt string "v"
      & info [ "value" ] ~docv:"PREFIX"
          ~doc:"Written values are $(docv)1, $(docv)2, ...")
  in
  let run (_, protocol) t b s endpoints role ops value copts metrics artifacts =
    reject_bad_input [ (ops < 0, "--ops must be >= 0") ];
    let cfg = config ~s ~t ~b () in
    let endpoints = fleet_endpoints cfg endpoints in
    let registry = if metrics then Some (Obs.Metrics.create ()) else None in
    (* One operation in flight at a time, each on key 0 of the single
       register, under the role's own process name. *)
    let session, reader, kops =
      match role with
      | `Writer ->
          ( Some "w",
            1,
            Array.init ops (fun i ->
                Net.Client.Keyed.Write
                  {
                    key = 0;
                    value = Core.Value.v (Printf.sprintf "%s%d" value (i + 1));
                  }) )
      | `Reader j -> (None, j, Array.make ops (Net.Client.Keyed.Read { key = 0 }))
    in
    let client =
      Net.Client.Keyed.connect ?session ?metrics:registry ~opts:copts
        ~max_inflight:1 ~reader ~protocol ~map:(Shard.Map.single cfg)
        endpoints
    in
    Format.printf "%s client on %a (%s), %d op(s)@."
      (match role with `Writer -> "writer" | `Reader j -> Printf.sprintf "reader r%d" j)
      Quorum.Config.pp cfg
      (Net.Protocols.name protocol)
      ops;
    let failures = ref 0 and spans = ref [] in
    let on_event = function
      | Net.Client.Keyed.Respond { span = Some s; _ } -> spans := s :: !spans
      | Net.Client.Keyed.Respond { span = None; _ } | Invoke _ -> ()
    in
    Array.iteri
      (fun i r ->
        let what =
          match kops.(i) with
          | Net.Client.Keyed.Write { value = v; _ } ->
              "write(" ^ Core.Value.to_string v ^ ")"
          | Net.Client.Keyed.Read _ -> "read"
        in
        match r with
        | Ok o -> print_outcome what o
        | Error e ->
            incr failures;
            Format.printf "  %s FAILED: %s@." what e)
      (Net.Client.Keyed.run_ops ~on_event client kops);
    Net.Client.Keyed.close client;
    let spans =
      List.sort (fun (a : Obs.Span.t) b -> Int.compare a.id b.id) !spans
    in
    live_report ~artifacts ~spans registry;
    if !failures > 0 then exit 1
  in
  let term =
    Term.(
      const run $ net_protocol_arg $ t_arg $ b_arg $ s_arg $ endpoints_arg
      $ role_arg $ ops_arg $ value_arg $ client_opts_args $ metrics_arg
      $ artifacts_arg)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Run READ or WRITE operations against live 'robustread serve' \
          endpoints and report rounds, retransmissions and latency; spans \
          and metrics export exactly like the simulator's.")
    term

(* ----- keyspace flags (cluster) ------------------------------------------- *)

let keys_arg =
  Arg.(
    value & opt int 0
    & info [ "keys" ] ~docv:"K"
        ~doc:
          "Serve a keyspace of $(docv) independent registers (key ids \
           0..K-1, placed over the S servers by the deterministic shard \
           map) instead of the single register.  0, the default, runs the \
           single register (key 0).")

let zipf_arg =
  Arg.(
    value & opt float 0.0
    & info [ "zipf" ] ~docv:"THETA"
        ~doc:
          "Zipfian key-popularity skew: key 0 is the hottest and rank r \
           falls off as 1/(r+1)^$(docv).  0 (default) draws keys \
           uniformly; YCSB's hot-spot regime is 0.99; values >= 1 (proper \
           Zipf, exact-CDF draws) concentrate even harder.  Only \
           meaningful with --keys.")

let write_ratio_arg =
  Arg.(
    value & opt float 0.05
    & info [ "write-ratio" ] ~docv:"F"
        ~doc:
          "Fraction of keyspace operations that are writes (default 0.05). \
           Only meaningful with --keys.")

let coalesce_arg =
  Arg.(
    value & opt ~vopt:64 int 0
    & info [ "coalesce" ] ~docv:"C"
        ~doc:
          "Coalesce reads: up to $(docv) reads invoked while a quorum \
           round's broadcast is still being assembled share that round \
           (per key in keyspace mode) and all adopt its result — \
           regularity-preserving piggyback batching.  0 (default) \
           disables coalescing; --coalesce with no value uses 64.")

let cluster_cmd =
  let readers_arg =
    Arg.(
      value & opt int 2
      & info [ "readers" ] ~docv:"R"
          ~doc:
            "Readers per client: each client engine's reader lanes, client \
             $(i,c)'s with reader ids $(i,c)$(docv)+1..($(i,c)+1)$(docv).")
  in
  let clients_arg =
    Arg.(
      value & opt int 1
      & info [ "clients" ] ~docv:"K"
          ~doc:
            "Client engines, each driven from a domain of its own (client 0 \
             on the main one), all started off one barrier.  Every client \
             runs --reads reads per reader; client 0 also runs the writes.  \
             With --keys, client $(i,c) draws its mix from seed + $(i,c) and \
             writes only the keys $(i,k) with mix($(i,k)) mod $(docv) = \
             $(i,c), so every register keeps one writer.")
  in
  let writes_arg =
    Arg.(
      value & opt int 3 & info [ "writes" ] ~docv:"N" ~doc:"Writes to run.")
  in
  let reads_arg =
    Arg.(
      value & opt int 10
      & info [ "reads" ] ~docv:"N" ~doc:"Reads per reader.")
  in
  let crash_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash" ] ~docv:"I"
          ~doc:
            "Crash the server for object $(docv) when half of the run's \
             operations have responded, across the clients, restart it \
             once the run is over, then run one more read — operations must \
             keep completing (requires t >= 1).")
  in
  let inflight_arg =
    Arg.(
      value & opt int 0
      & info [ "inflight" ] ~docv:"W"
          ~doc:
            "Operation window per client: at most $(docv) operations in \
             flight at once.  A key runs at most one read per reader lane, \
             so on the single register the window is capped by --readers.  \
             0, the default, allows one read in flight per reader.")
  in
  let run (p, protocol) t b s readers clients writes reads transport crash
      inflight domains keys zipf write_ratio coalesce seed copts metrics
      artifacts =
    reject_bad_input
      [
        (readers < 1, "--readers must be >= 1");
        (clients < 1, "--clients must be >= 1");
        (writes < 0 || reads < 0, "--writes and --reads must be >= 0");
        (inflight < 0 || coalesce < 0, "--inflight and --coalesce must be >= 0");
        (keys < 0, "--keys must be >= 0");
        (domains < 1, "--domains must be >= 1");
        ( not (Float.is_finite zipf && zipf >= 0.0),
          "--zipf must be finite and >= 0" );
        ( not (write_ratio >= 0.0 && write_ratio <= 1.0),
          "--write-ratio must be in [0, 1]" );
      ];
    let cfg = config ~s ~t ~b () in
    (match crash with
    | Some i when i < 1 || i > cfg.Quorum.Config.s ->
        Format.eprintf "robustread: --crash %d out of range 1..%d@." i
          cfg.Quorum.Config.s;
        exit 2
    | Some _ when cfg.Quorum.Config.t < 1 ->
        Format.eprintf "robustread: --crash needs t >= 1@.";
        exit 2
    | _ -> ());
    (* regular-gc's objects prune only once every reader they know of
       has shown a cache floor, so they must know all K·R readers. *)
    let protocol =
      if p = Fault.Campaign.Regular_gc then
        Net.Protocols.regular_gc ~readers:(clients * readers)
      else protocol
    in
    let window = if inflight > 0 then inflight else readers in
    (* A keyspace client draws one zipfian read/write mix; on the single
       register client 0 runs the writes, then every client its readers'
       reads.  Either way client 0 draws the --writes share. *)
    let map, writes_first, ops =
      if keys > 0 then
        let draw c =
          let gen =
            Workload.Keyspace.make_exn ~skew:zipf ~write_ratio
              ~write_filter:(fun k -> Shard.Map.mix k mod clients = c)
              ~keys ~seed:(seed + c) ()
          in
          Workload.Keyspace.ops gen
            ((if c = 0 then writes else 0) + (readers * reads))
        in
        ( Shard.Map.make_exn ~keys ~fleet:cfg.Quorum.Config.s ~cfg (),
          [||],
          Array.init clients draw )
      else
        ( Shard.Map.single cfg,
          Array.init writes (fun i ->
              Net.Client.Keyed.Write
                { key = 0; value = Core.Value.v (Printf.sprintf "v%d" (i + 1)) }),
          Array.make clients
            (Array.make (readers * reads) (Net.Client.Keyed.Read { key = 0 })) )
    in
    let total = Array.fold_left (fun n a -> n + Array.length a) 0 ops in
    let cluster =
      Net.Cluster.start ~opts:copts ~transport ~domains ~map ~protocol ~cfg ()
    in
    Format.printf
      "cluster of %a (%s) over %s sockets (%d server domain%s): %d writes, \
       %s%d readers x %d reads, window %d%s%s@."
      Quorum.Config.pp cfg
      (Net.Protocols.name protocol)
      (match transport with `Unix -> "unix" | `Tcp -> "tcp")
      (min domains cfg.Quorum.Config.s)
      (if domains > 1 then "s" else "")
      writes
      (if clients > 1 then Printf.sprintf "%d clients x " clients else "")
      readers reads window
      (if coalesce > 1 then Printf.sprintf ", coalesce %d" coalesce else "")
      (match crash with
      | Some i -> Printf.sprintf ", crashing object %d mid-run" i
      | None -> "");
    if keys > 0 then
      Format.printf "keyspace: %s (zipf %.2f, write ratio %.2f)@."
        (Shard.Map.to_string map) zipf write_ratio;
    let engines =
      Array.init clients (fun _ ->
          Net.Cluster.engine ~lanes:readers ~inflight:window ~coalesce cluster)
    in
    let failures = ref 0 and completed = ref 0 in
    let tally what = function
      | Ok _ -> incr completed
      | Error e ->
          incr failures;
          Format.eprintf "%s FAILED: %s@." what e
    in
    let alive () =
      String.concat "," (List.map string_of_int (Net.Cluster.alive cluster))
    in
    Array.iteri
      (fun i r ->
        let what = Printf.sprintf "write(v%d)" (i + 1) in
        Result.iter (print_outcome what) r;
        tally what r)
      (Net.Cluster.run engines.(0) writes_first);
    (* The client whose response is the run's halfway one crashes the
       object, from its own event loop. *)
    let on_event =
      match crash with
      | None -> ignore
      | Some i ->
          let half = max 1 (total / 2) and responses = Atomic.make 0 in
          function
          | Net.Client.Keyed.Respond _ ->
              if 1 + Atomic.fetch_and_add responses 1 = half then begin
                Net.Cluster.crash cluster i;
                Format.printf "  crashed object %d (alive: %s)@." i (alive ())
              end
          | Net.Client.Keyed.Invoke _ -> ()
    in
    let passes =
      Exec.Pool.timed clients (fun c () ->
          Net.Cluster.run ~on_event engines.(c) ops.(c))
    in
    Array.iteri
      (fun c (_, results) ->
        Array.iteri
          (fun i -> tally (Printf.sprintf "client %d op #%d" c (i + 1)))
          results)
      passes;
    let per_s n wall = if wall > 0.0 then float_of_int n /. wall else 0.0 in
    let rates = Array.map (fun (w, r) -> per_s (Array.length r) w) passes in
    let wall = Array.fold_left (fun m (w, _) -> Float.max m w) 0.0 passes in
    Format.printf
      "throughput: %d ops in %.3fs = %.0f ops/s; per client min %.0f, max \
       %.0f ops/s@."
      total wall (per_s total wall)
      (Array.fold_left Float.min Float.infinity rates)
      (Array.fold_left Float.max 0.0 rates);
    (match crash with
    | Some i when not (List.mem i (Net.Cluster.alive cluster)) ->
        Net.Cluster.restart_exn cluster i;
        Format.printf "  restarted object %d (alive: %s)@." i (alive ());
        (* one more read with the recovered replica back in the quorum *)
        let r =
          Net.Cluster.run engines.(0) [| Net.Client.Keyed.Read { key = 0 } |]
        in
        Result.iter (print_outcome "read(post-restart)") r.(0);
        tally "read(post-restart)" r.(0)
    | _ -> ());
    let histories = Net.Cluster.keyed_histories cluster in
    (* Every client has joined, so an op still open failed for good. *)
    let v =
      Fault.Campaign.judge p ~quiescent:true ~completed:!completed ~total
        histories
    in
    let partition = Net.Cluster.partition_violations cluster in
    Format.printf
      "%d histories checked: %d complete ops of %d completed, %d partition \
       violations; %s@."
      (List.length histories) v.checked v.completed partition
      (claim_verdict p v);
    print_violations ~keyed:true p v;
    live_report ~artifacts ~spans:(Net.Cluster.spans cluster)
      (if metrics then Some (Net.Cluster.metrics cluster) else None);
    Net.Cluster.stop cluster;
    if
      !failures > 0 || partition > 0 || v.checked <> v.completed
      || Fault.Campaign.breaches v > 0
    then exit 1
  in
  let term =
    Term.(
      const run $ net_protocol_arg $ t_arg $ b_arg $ s_arg $ readers_arg
      $ clients_arg $ writes_arg $ reads_arg $ transport_arg $ crash_arg
      $ inflight_arg $ domains_arg $ keys_arg $ zipf_arg $ write_ratio_arg
      $ coalesce_arg $ seed_arg $ client_opts_args $ metrics_arg
      $ artifacts_arg)
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Spin up a live loopback cluster in one process: S servers plus \
          --clients client engines, each on a domain of its own, whose \
          reader lanes are the readers.  Run a read/write workload over \
          real sockets — optionally crashing and restarting a server \
          mid-run — print its throughput, then check every key's recorded \
          history against the protocol's claim and round bounds and export \
          spans/metrics.  Exits 1 on any violation, failed op, unrecorded \
          op or domain-partition violation.")
    term

(* ----- main ------------------------------------------------------------------ *)

let () =
  let doc =
    "robust read/write storage over Byzantine base objects (Guerraoui & \
     Vukolic, PODC'06)"
  in
  let main =
    Cmd.group
      (Cmd.info "robustread" ~doc)
      [
        info_cmd;
        run_cmd;
        trace_cmd;
        lower_bound_cmd;
        check_cmd;
        walks_cmd;
        chaos_cmd;
        serve_cmd;
        client_cmd;
        cluster_cmd;
      ]
  in
  exit (Cmd.eval main)

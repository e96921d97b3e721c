(* robustread — command-line driver for the robust-storage simulator.

     robustread info -t 2 -b 1
     robustread run --protocol safe -t 1 -b 1 --writes 3 --reads 5 --attack forge
     robustread lower-bound --protocol naive-fast -t 1 -b 1
     robustread check --protocol safe --attack forge --budget 200000

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

(* The first b objects run [attack]'s strategy. *)
let byzantine ~cfg strategy = function
  | None -> []
  | Some kind ->
      let f = strategy kind in
      List.init cfg.Quorum.Config.b (fun i -> (i + 1, f))

let run_generic (type m)
    (module P : Core.Protocol_intf.S with type msg = m)
    ~(byz : (int * m Core.Byz.factory) list) ~claim ~cfg ~seed ~delay ~writes
    ~readers ~reads ~trace ~metrics ~artifacts =
  let module Sc = Core.Scenario.Make (P) in
  let schedule = cli_schedule ~seed ~writes ~readers ~reads in
  let registry = if metrics then Some (Obs.Metrics.create ()) else None in
  let rep =
    Sc.run ~trace ?metrics:registry
      ?clock:(if metrics then Some now_s else None)
      ~cfg ~seed ~delay
      ~faults:{ Sc.crashes = []; byzantine = byz }
      schedule
  in
  Format.printf "protocol %s on %a, seed %d@." P.name Quorum.Config.pp cfg seed;
  List.iter
    (fun (o : Sc.outcome) ->
      match o.op with
      | Core.Schedule.Write v ->
          Format.printf "  [%6d] write(%s) rounds=%d latency=%d@." o.invoked_at
            (Core.Value.to_string v) o.rounds (o.completed_at - o.invoked_at)
      | Core.Schedule.Read { reader } ->
          Format.printf "  [%6d] read(r%d) = %s rounds=%d latency=%d@."
            o.invoked_at reader
            (match o.result with
            | Some v -> Core.Value.to_string v
            | None -> "?")
            o.rounds (o.completed_at - o.invoked_at))
    rep.outcomes;
  let violations = Fault.Campaign.check claim rep.history in
  Format.printf "completed %d/%d operations; %d messages delivered@."
    (List.length rep.outcomes) (List.length schedule) rep.messages_delivered;
  Format.printf "%s: %s@."
    (Fault.Campaign.claim_name claim)
    (if violations = [] then "OK"
     else Printf.sprintf "%d VIOLATIONS" (List.length violations));
  List.iter
    (fun v ->
      Format.printf "  violation: %a@."
        (Histories.Checks.pp_violation ~pp_value:Format.pp_print_string)
        v)
    violations;
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
  if violations <> [] then exit 1

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
          "Collect observability metrics (round-count/latency histograms, \
           wire counters, queue depth) and print the table.")

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
    let cfg = config ~s ~t ~b () in
    (* artifacts always need the raw trace to link spans to entries *)
    let trace = trace || artifacts <> None in
    let (Fault.Campaign.Entry { automata; claim; strategy; _ }) =
      Fault.Campaign.entry protocol
    in
    run_generic automata
      ~byz:(byzantine ~cfg strategy attack)
      ~claim ~cfg ~seed ~delay ~writes ~readers ~reads ~trace ~metrics
      ~artifacts
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
    let cfg = config ~s ~t ~b () in
    let (Fault.Campaign.Entry { automata = (module P); strategy; _ }) =
      Fault.Campaign.entry protocol
    in
    let module Sc = Core.Scenario.Make (P) in
    let schedule = cli_schedule ~seed ~writes ~readers ~reads in
    let rep =
      Sc.run ~trace:true ~cfg ~seed ~delay
        ~faults:
          { Sc.crashes = []; byzantine = byzantine ~cfg strategy attack }
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
      value & opt int 200_000
      & info [ "budget" ] ~docv:"STATES" ~doc:"Model-checker state budget.")
  in
  let run protocol t b budget =
    let cfg = config ~s:None ~t ~b () in
    let (Fault.Campaign.Entry { automata = (module P); _ }) =
      Fault.Campaign.entry protocol
    in
    let module E = Mc.Explorer.Make (P) in
    let r =
      E.check ~max_states:budget
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
    if r.violations <> [] then exit 1
  in
  let term = Term.(const run $ protocol_arg $ t_arg $ b_arg $ budget_arg) in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Exhaustively model-check one write followed by one read for the \
          protocol, over all message delivery orders.")
    term

(* ----- walks ------------------------------------------------------------- *)

let walks_cmd =
  let walks_arg =
    Arg.(
      value & opt int 2000
      & info [ "walks" ] ~docv:"N" ~doc:"Number of random schedules to sample.")
  in
  let run protocol t b seed walks jobs =
    let cfg = config ~s:None ~t ~b () in
    let (Fault.Campaign.Entry { automata = (module P); _ }) =
      Fault.Campaign.entry protocol
    in
    let module E = Mc.Explorer.Make (P) in
    let r =
      E.random_walks ?jobs ~walks ~seed
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
         "Monte-Carlo check: sample random delivery schedules of a 2-write,           4-read workload and verify every terminal history.")
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
           (clamped to 1..S).")

(* Protocol requests the clients sent per completed op: the sum of the
   wire.*.req.sent counters over completed reads and writes — the
   figure quorum-sized rounds cut (S−t per round, not S). *)
let print_requests_per_op reg =
  let sent =
    List.fold_left
      (fun n (name, v) ->
        if
          String.starts_with ~prefix:"wire." name
          && String.ends_with ~suffix:".req.sent" name
        then n + v
        else n)
      0 (Obs.Metrics.counters reg)
  in
  let ops =
    Obs.Metrics.counter_value reg "op.read.completed"
    + Obs.Metrics.counter_value reg "op.write.completed"
  in
  if ops > 0 then
    Format.printf "requests/op: %.2f (%d requests, %d completed ops)@."
      (float_of_int sent /. float_of_int ops)
      sent ops

(* What a live command reports at exit: with a registry (kept only
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

(* ----- keyspace flags (shared by cluster / load) -------------------------- *)

let keyed_op = function
  | Workload.Keyspace.Read { key } -> Net.Client.Keyed.Read { key }
  | Workload.Keyspace.Write { key; value } -> Net.Client.Keyed.Write { key; value }

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
          ~doc:"Readers: the engine's reader lanes, reader ids 1..$(docv).")
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
             operations have responded, restart it once the run is over, \
             then run one more read — operations must keep completing \
             (requires t >= 1).")
  in
  let inflight_arg =
    Arg.(
      value & opt int 0
      & info [ "inflight" ] ~docv:"W"
          ~doc:
            "Operation window: at most $(docv) operations in flight at \
             once.  A key runs at most one read per reader lane, so on the \
             single register the window is capped by --readers.  0, the \
             default, allows one read in flight per reader.")
  in
  let fast_reads_arg =
    Arg.(
      value & flag
      & info [ "fast-reads" ]
          ~doc:
            "Run the §5.1 cached/suffix protocol ($(b,regular-gc) sized to \
             the actual reader count): readers cache the last returned \
             timestamp, objects ship history suffixes, and reads return \
             after round 1 whenever the candidate set already decides.  At \
             S >= 2t+2b+1 every read does, despite b lies; below it a read \
             still does unless a lie or an overlapping write blocks the \
             decision, and only then runs the full two rounds \
             (Proposition 1).  Overrides $(b,--protocol).")
  in
  let run (p, protocol) t b s readers writes reads transport crash inflight
      domains fast_reads keys zipf write_ratio coalesce seed copts metrics
      artifacts =
    if readers < 1 || inflight < 0 || coalesce < 0 then begin
      Format.eprintf
        "robustread: --readers must be >= 1, --inflight and --coalesce >= 0@.";
      exit 2
    end;
    let p, protocol =
      if fast_reads then
        (Fault.Campaign.Regular_gc, Net.Protocols.regular_gc ~readers)
      else (p, protocol)
    in
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
    let window = if inflight > 0 then inflight else readers in
    (* A keyspace run draws one zipfian read/write mix; the single
       register runs its writes, then every reader's reads. *)
    let map, writes_first, ops =
      if keys > 0 then
        let gen =
          Workload.Keyspace.make_exn ~skew:zipf ~write_ratio ~keys ~seed ()
        in
        ( Shard.Map.make_exn ~keys ~fleet:cfg.Quorum.Config.s ~cfg (),
          [||],
          Array.map keyed_op
            (Workload.Keyspace.ops gen (writes + (readers * reads))) )
      else
        ( Shard.Map.single cfg,
          Array.init writes (fun i ->
              Net.Client.Keyed.Write
                { key = 0; value = Core.Value.v (Printf.sprintf "v%d" (i + 1)) }),
          Array.make (readers * reads) (Net.Client.Keyed.Read { key = 0 }) )
    in
    let cluster =
      Net.Cluster.start ~metrics ~opts:copts ~transport ~domains ~map ~protocol
        ~cfg ()
    in
    Format.printf
      "cluster of %a (%s) over %s sockets (%d server domain%s): %d writes, %d \
       readers x %d reads, window %d%s%s@."
      Quorum.Config.pp cfg
      (Net.Protocols.name protocol)
      (match transport with `Unix -> "unix" | `Tcp -> "tcp")
      (max 1 (min domains cfg.Quorum.Config.s))
      (if domains > 1 then "s" else "")
      writes readers reads window
      (if coalesce > 1 then Printf.sprintf ", coalesce %d" coalesce else "")
      (match crash with
      | Some i -> Printf.sprintf ", crashing object %d mid-run" i
      | None -> "");
    if keys > 0 then
      Format.printf "keyspace: %s (zipf %.2f, write ratio %.2f)@."
        (Shard.Map.to_string map) zipf write_ratio;
    let engine =
      Net.Cluster.engine ~lanes:readers ~inflight:window ~coalesce cluster
    in
    let failures = ref 0 in
    let fail msg =
      incr failures;
      Format.eprintf "%s@." msg
    in
    let alive () =
      String.concat "," (List.map string_of_int (Net.Cluster.alive cluster))
    in
    Array.iteri
      (fun i -> function
        | Ok o -> print_outcome (Printf.sprintf "write(v%d)" (i + 1)) o
        | Error e -> fail (Printf.sprintf "write v%d FAILED: %s" (i + 1) e))
      (Net.Cluster.run engine writes_first);
    let responses = ref 0 in
    let on_event = function
      | Net.Client.Keyed.Respond _ -> (
          incr responses;
          match crash with
          | Some i
            when !responses = max 1 (Array.length ops / 2)
                 && List.mem i (Net.Cluster.alive cluster) ->
              Net.Cluster.crash cluster i;
              Format.printf "  crashed object %d (alive: %s)@." i (alive ())
          | _ -> ())
      | Net.Client.Keyed.Invoke _ -> ()
    in
    Array.iteri
      (fun i -> function
        | Ok _ -> ()
        | Error e -> fail (Printf.sprintf "op #%d FAILED: %s" (i + 1) e))
      (Net.Cluster.run ~on_event engine ops);
    (match crash with
    | Some i when not (List.mem i (Net.Cluster.alive cluster)) -> (
        Net.Cluster.restart_exn cluster i;
        Format.printf "  restarted object %d (alive: %s)@." i (alive ());
        (* one more read with the recovered replica back in the quorum *)
        match
          (Net.Cluster.run engine [| Net.Client.Keyed.Read { key = 0 } |]).(0)
        with
        | Ok o -> print_outcome "read(post-restart)" o
        | Error e -> fail ("post-restart read FAILED: " ^ e))
    | _ -> ());
    let claim = Fault.Campaign.claim p in
    let histories = Net.Cluster.keyed_histories cluster in
    let bad =
      List.fold_left
        (fun acc (key, h) ->
          let vs = Fault.Campaign.check claim h in
          List.iter
            (fun v ->
              Format.printf "  key %d violation: %a@." key
                (Histories.Checks.pp_violation ~pp_value:Format.pp_print_string)
                v)
            vs;
          acc + List.length vs)
        0 histories
    in
    let partition = Net.Cluster.partition_violations cluster in
    if partition > 0 then
      fail
        (Printf.sprintf
           "domain-partition violations: %d (an object was stepped outside \
            its owning domain)"
           partition);
    Format.printf "%d histories (%d ops) checked; %s: %s@."
      (List.length histories)
      (List.fold_left (fun n (_, h) -> n + List.length h) 0 histories)
      (Fault.Campaign.claim_name claim)
      (if bad = 0 then "OK" else Printf.sprintf "%d VIOLATIONS" bad);
    live_report ~artifacts ~spans:(Net.Cluster.spans cluster)
      (Net.Cluster.metrics cluster);
    Net.Cluster.stop cluster;
    if !failures > 0 || bad > 0 then exit 1
  in
  let term =
    Term.(
      const run $ net_protocol_arg $ t_arg $ b_arg $ s_arg $ readers_arg
      $ writes_arg $ reads_arg $ transport_arg $ crash_arg $ inflight_arg
      $ domains_arg $ fast_reads_arg $ keys_arg $ zipf_arg
      $ write_ratio_arg $ coalesce_arg $ seed_arg $ client_opts_args
      $ metrics_arg $ artifacts_arg)
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Spin up a live loopback cluster (S servers plus one client engine \
          whose reader lanes are the readers, in one process), run a \
          read/write workload over real sockets — optionally crashing and \
          restarting a server mid-run — then check every key's recorded \
          history against the property the protocol claims and export \
          spans/metrics.")
    term

(* ----- load: multi-process saturation driver ----------------------------- *)

(* The saturation workload needs more client-side parallelism than one
   process can generate (a client is one thread; the GC and the select
   loop cap it).  'load' hosts the sharded server group and forks K
   worker processes of this same binary ('load-worker', hidden), each
   driving its own client with a disjoint reader-id range; workers
   export their op.* registries as JSONL and the parent merges them with
   the per-object server registries into one report. *)

let first_reader_arg =
  Arg.(
    value & opt int 1
    & info [ "first-reader" ] ~docv:"J"
        ~doc:"First reader id of this worker's range (ids J..J+W-1).")

let ops_per_proc_arg =
  Arg.(
    value & opt int 200
    & info [ "ops"; "n" ] ~docv:"N" ~doc:"READ operations per worker process.")

let load_inflight_arg =
  Arg.(
    value & opt int 8
    & info [ "inflight" ] ~docv:"W"
        ~doc:
          "In-flight operation window per worker process (and, for the \
           single register, its number of reader lanes).")

let load_worker_cmd =
  let metrics_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Write this worker's metrics registry as JSONL to $(docv).")
  in
  let workers_arg =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"K"
          ~doc:"Total worker processes (for keyspace write partitioning).")
  in
  let worker_arg =
    Arg.(
      value & opt int 0
      & info [ "worker" ] ~docv:"I"
          ~doc:"This worker's 0-based index among --workers.")
  in
  let run (_, protocol) t b s endpoints inflight ops first_reader keys zipf
      write_ratio coalesce seed workers worker metrics_out copts =
    let coalesce = max 1 coalesce in
    let cfg = config ~s ~t ~b () in
    let endpoints = fleet_endpoints cfg endpoints in
    if inflight < 1 || ops < 0 || first_reader < 1 then begin
      Format.eprintf "robustread: bad --inflight/--ops/--first-reader@.";
      exit 2
    end;
    if workers < 1 || worker < 0 || worker >= workers then begin
      Format.eprintf "robustread: bad --workers/--worker@.";
      exit 2
    end;
    let registry = Obs.Metrics.create () in
    let t0 = now_s () in
    (* Keyspace mode: a zipfian read/write mix over the fleet.  The
       registers are SWMR, so write ownership is partitioned across
       workers with the placement mixer: this worker only writes keys
       where mix(key) mod workers = worker; other write draws become
       reads (the key-popularity marginal is unchanged).  Otherwise the
       worker reads the single register through [inflight] reader
       lanes. *)
    let map, readers, kops =
      if keys > 0 then
        let gen =
          Workload.Keyspace.make_exn ~skew:zipf ~write_ratio
            ~write_filter:(fun k -> Shard.Map.mix k mod workers = worker)
            ~keys ~seed:(seed + worker) ()
        in
        ( Shard.Map.make_exn ~keys ~fleet:cfg.Quorum.Config.s ~cfg (),
          1,
          Array.map keyed_op (Workload.Keyspace.ops gen ops) )
      else
        ( Shard.Map.single cfg,
          inflight,
          Array.make ops (Net.Client.Keyed.Read { key = 0 }) )
    in
    let client =
      Net.Client.Keyed.connect ~metrics:registry ~opts:copts
        ~max_inflight:inflight ~reader:first_reader ~readers ~coalesce ~protocol
        ~map endpoints
    in
    let outcomes = Net.Client.Keyed.run_ops client kops in
    Net.Client.Keyed.close client;
    let wall = now_s () -. t0 in
    let failures =
      Array.fold_left
        (fun n -> function Ok _ -> n | Error _ -> n + 1)
        0 outcomes
    in
    let ops_per_s = if wall > 0.0 then float_of_int ops /. wall else 0.0 in
    (* Per-worker throughput as a gauge: the parent reads each worker's
       file separately to report the max/min spread before merging
       (merged gauges keep only the max). *)
    Obs.Metrics.set_gauge registry "load.worker.ops_per_s" ops_per_s;
    (match metrics_out with
    | Some path ->
        Obs.Export.write_file ~path
          (Obs.Export.metrics_jsonl
             ~labels:[ ("proc_first_reader", string_of_int first_reader) ]
             registry)
    | None -> ());
    Format.printf "load-worker r%d..r%d: %d ops in %.3fs (%.0f ops/s), %d \
                   failed@."
      first_reader
      (first_reader + inflight - 1)
      ops wall ops_per_s failures;
    if failures > 0 then exit 1
  in
  let term =
    Term.(
      const run $ net_protocol_arg $ t_arg $ b_arg $ s_arg $ endpoints_arg
      $ load_inflight_arg $ ops_per_proc_arg $ first_reader_arg $ keys_arg
      $ zipf_arg $ write_ratio_arg $ coalesce_arg $ seed_arg $ workers_arg
      $ worker_arg $ metrics_out_arg $ client_opts_args)
  in
  Cmd.v
    (Cmd.info "load-worker" ~docs:Manpage.s_none
       ~doc:
         "(internal) One load-generator process: a pipelined client with a \
          disjoint reader-id range, spawned by 'robustread load'.")
    term

let load_cmd =
  let procs_arg =
    Arg.(
      value & opt int 2
      & info [ "procs"; "k" ] ~docv:"K"
          ~doc:"Client worker processes to fork (disjoint reader-id ranges).")
  in
  let run (_, protocol) t b s domains procs inflight ops transport keys zipf
      write_ratio coalesce seed copts metrics artifacts =
    if procs < 1 || inflight < 1 || ops < 1 then begin
      Format.eprintf "robustread: --procs, --inflight and --ops must be >= 1@.";
      exit 2
    end;
    if coalesce < 0 then begin
      Format.eprintf "robustread: --coalesce %d must be >= 0@." coalesce;
      exit 2
    end;
    let cfg = config ~s ~t ~b () in
    let s = cfg.Quorum.Config.s in
    (* Private scratch dir for the per-worker metric files. *)
    let dir =
      let path = Filename.temp_file "robustread-load" "" in
      Unix.unlink path;
      Unix.mkdir path 0o700;
      path
    in
    let cluster =
      Net.Cluster.start ~metrics:true ~opts:copts ~transport ~domains ~protocol
        ~cfg ()
    in
    (* Seed one write so every READ returns a real value.  In keyspace
       mode the workers own the writes (partitioned per key — the
       parent writing key 0 here would be a second writer on it). *)
    if keys = 0 then begin
      let writer, _ = Net.Cluster.processes cluster ~readers:0 in
      match
        (Net.Cluster.run writer
           [| Net.Client.Keyed.Write { key = 0; value = Core.Value.v "v1" } |]).(0)
      with
      | Ok _ -> ()
      | Error e ->
          Format.eprintf "robustread: seed write failed: %s@." e;
          Net.Cluster.stop cluster;
          exit 1
    end;
    Format.printf
      "load: %a (%s) over %s sockets, %d worker domain(s); %d proc(s) x \
       window %d x %d ops%s@."
      Quorum.Config.pp cfg
      (Net.Protocols.name protocol)
      (match transport with `Unix -> "unix" | `Tcp -> "tcp")
      (max 1 (min domains s))
      procs inflight ops
      (if keys > 0 then
         Printf.sprintf "; keyspace of %d keys (zipf %.2f, write ratio %.2f%s)"
           keys zipf write_ratio
           (if coalesce > 1 then Printf.sprintf ", coalesce %d" coalesce
            else "")
       else "");
    Format.print_flush ();
    let metric_file k = Filename.concat dir (Printf.sprintf "proc%d.jsonl" k) in
    let ep_args =
      List.concat_map
        (fun ep -> [ "-e"; Net.Endpoint.to_string ep ])
        (Array.to_list (Net.Cluster.endpoints cluster))
    in
    let t0 = now_s () in
    let pids =
      List.init procs (fun k ->
          let k = k + 1 in
          let argv =
            [
              Sys.executable_name; "load-worker";
              "-p"; Net.Protocols.name protocol;
              "-t"; string_of_int cfg.Quorum.Config.t;
              "-b"; string_of_int cfg.Quorum.Config.b;
              "-s"; string_of_int s;
              "--inflight"; string_of_int inflight;
              "--ops"; string_of_int ops;
              "--first-reader"; string_of_int (1 + ((k - 1) * inflight));
              "--keys"; string_of_int keys;
              "--zipf"; Printf.sprintf "%g" zipf;
              "--write-ratio"; Printf.sprintf "%g" write_ratio;
              "--coalesce"; string_of_int coalesce;
              "--seed"; string_of_int seed;
              "--workers"; string_of_int procs;
              "--worker"; string_of_int (k - 1);
              "--metrics-out"; metric_file k;
              "--deadline"; Printf.sprintf "%g" copts.Net.Client.deadline;
              "--retries"; string_of_int copts.Net.Client.retries;
              "--backoff"; Printf.sprintf "%g" copts.Net.Client.backoff;
            ]
            @ ep_args
          in
          Unix.create_process Sys.executable_name (Array.of_list argv)
            Unix.stdin Unix.stdout Unix.stderr)
    in
    let failed = ref 0 in
    List.iter
      (fun pid ->
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED 0 -> ()
        | _ -> incr failed)
      pids;
    let wall = now_s () -. t0 in
    (* Merge the cluster's registries (per-object servers and the seed
       writer) and per-process client JSONL exports into one registry:
       counters add, histograms merge. *)
    let merged = Option.get (Net.Cluster.metrics cluster) in
    Net.Cluster.stop cluster;
    let partition = Net.Cluster.partition_violations cluster in
    (* Each worker file is parsed into its own registry first: merged
       gauges keep only the max, and the per-worker ops/s spread needs
       every worker's value. *)
    let worker_rates = ref [] in
    for k = 1 to procs do
      let path = metric_file k in
      if Sys.file_exists path then begin
        let fresh = Obs.Metrics.create () in
        (match
           Obs.Export.metrics_of_jsonl ~into:fresh (Obs.Export.read_file path)
         with
        | Ok _ ->
            (match Obs.Metrics.gauge_value fresh "load.worker.ops_per_s" with
            | Some r when r > 0.0 -> worker_rates := (k, r) :: !worker_rates
            | _ -> ());
            Obs.Metrics.merge_into ~dst:merged fresh
        | Error e ->
            incr failed;
            Format.eprintf "robustread: bad metrics from worker %d: %s@." k e);
        Sys.remove path
      end
      else begin
        incr failed;
        Format.eprintf "robustread: worker %d left no metrics file@." k
      end
    done;
    (try Unix.rmdir dir with Unix.Unix_error _ -> ());
    let total = procs * ops in
    Format.printf
      "total: %d ops in %.3fs = %.0f ops/s (%d proc(s)); reads completed: %d; \
       partition violations: %d@."
      total wall
      (if wall > 0.0 then float_of_int total /. wall else 0.0)
      procs
      (Obs.Metrics.counter_value merged "op.read.completed")
      partition;
    print_requests_per_op merged;
    (* Per-worker fairness: a spread ratio near 1 means no worker was
       starved by the shared server group. *)
    (match !worker_rates with
    | [] -> ()
    | rates ->
        let rs = List.map snd rates in
        let rmin = List.fold_left Float.min (List.hd rs) (List.tl rs) in
        let rmax = List.fold_left Float.max (List.hd rs) (List.tl rs) in
        Format.printf
          "per-worker ops/s: min %.0f, max %.0f, spread ratio %.2f@." rmin rmax
          (if rmin > 0.0 then rmax /. rmin else Float.infinity));
    if metrics then
      Format.printf "--- merged metrics ---@.%s"
        (Stats.Table.to_string (Obs.Metrics.table merged));
    (match artifacts with
    | None -> ()
    | Some dir ->
        write_artifacts ~dir
          [ ("metrics.jsonl", Obs.Export.metrics_jsonl merged) ]);
    if partition > 0 then begin
      Format.eprintf
        "robustread: %d domain-partition violations (an object was stepped \
         outside its owning domain)@."
        partition;
      exit 1
    end;
    if !failed > 0 then exit 1
  in
  let term =
    Term.(
      const run $ net_protocol_arg $ t_arg $ b_arg $ s_arg $ domains_arg
      $ procs_arg $ load_inflight_arg $ ops_per_proc_arg $ transport_arg
      $ keys_arg $ zipf_arg $ write_ratio_arg $ coalesce_arg $ seed_arg
      $ client_opts_args $ metrics_arg $ artifacts_arg)
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Saturate a sharded poll server group: host all S objects across \
          --domains worker domains in this process, fork --procs client \
          processes each driving a pipelined client with a disjoint \
          reader-id range, then merge every registry (per-object server \
          metrics + per-process JSONL exports) into one ops/s and wire.* \
          report.  Exits nonzero on any worker failure or domain-partition \
          violation.")
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
        load_cmd;
        load_worker_cmd;
      ]
  in
  exit (Cmd.eval main)

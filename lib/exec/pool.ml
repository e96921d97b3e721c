let recommended_jobs () = max 1 (Domain.recommended_domain_count ())

(* One failed task is remembered (preferring the smallest index, so the
   re-raised exception is deterministic when tasks fail determin-
   istically); the flag doubles as a cooperative cancellation signal
   that makes the remaining workers stop stealing chunks. *)
type failure = { index : int; exn : exn; backtrace : Printexc.raw_backtrace }

let record_failure cell index exn backtrace =
  let rec loop () =
    match Atomic.get cell with
    | Some f when f.index <= index -> ()
    | prev ->
        if not (Atomic.compare_and_set cell prev (Some { index; exn; backtrace }))
        then loop ()
  in
  loop ()

let init ?jobs ?chunk n f =
  if n < 0 then invalid_arg "Pool.init: negative size";
  let jobs =
    match jobs with
    | Some j -> max 1 (min j n)
    | None -> max 1 (min (recommended_jobs ()) n)
  in
  if n = 0 then [||]
  else if jobs = 1 then Array.init n f
  else begin
    let chunk =
      match chunk with
      | Some c -> max 1 c
      | None -> max 1 (n / (8 * jobs))
    in
    (* Distinct indices write distinct slots, and Domain.join publishes
       every worker's writes to the caller, so the plain array needs no
       further synchronization. *)
    let results = Array.make n None in
    let cursor = Atomic.make 0 in
    let failed : failure option Atomic.t = Atomic.make None in
    let worker () =
      let continue = ref true in
      while !continue do
        if Atomic.get failed <> None then continue := false
        else begin
          let start = Atomic.fetch_and_add cursor chunk in
          if start >= n then continue := false
          else
            let stop = min n (start + chunk) in
            let i = ref start in
            while !i < stop do
              (match f !i with
              | v -> results.(!i) <- Some v
              | exception e ->
                  record_failure failed !i e (Printexc.get_raw_backtrace ()));
              incr i
            done
        end
      done
    in
    let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains;
    match Atomic.get failed with
    | Some { exn; backtrace; _ } -> Printexc.raise_with_backtrace exn backtrace
    | None ->
        Array.map
          (function Some v -> v | None -> assert false (* no failure recorded *))
          results
  end

let map ?jobs ?chunk f xs =
  let a = Array.of_list xs in
  Array.to_list (init ?jobs ?chunk (Array.length a) (fun i -> f a.(i)))

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed k f =
  if k < 1 then invalid_arg "Pool.timed: k < 1";
  (* Every client checks in once its untimed part has returned (or
     raised), so no client waits on one that failed. *)
  let ready = Atomic.make 0 in
  let body c () =
    let run =
      Fun.protect ~finally:(fun () -> Atomic.incr ready) (fun () -> f c)
    in
    while Atomic.get ready < k do
      Domain.cpu_relax ()
    done;
    let t0 = now_s () in
    let r = run () in
    (now_s () -. t0, r)
  in
  let catch g =
    match g () with
    | v -> Ok v
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  let others = Array.init (k - 1) (fun c -> Domain.spawn (body (c + 1))) in
  let first = catch (body 0) in
  let rest = Array.map (fun d -> catch (fun () -> Domain.join d)) others in
  Array.map
    (function Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    (Array.append [| first |] rest)

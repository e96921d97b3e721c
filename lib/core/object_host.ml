type ('m, 'o) protocol =
  (module Protocol_intf.S with type msg = 'm and type obj = 'o)

(* One key's automaton and, per sender, the last reply it sent.  A key
   has a handful of senders: a short list costs less to make and to
   search than a table per key. *)
type 'm last = { who : Sim.Proc_id.t; mutable reply : 'm }

type ('m, 'o) entry = { mutable obj : 'o; mutable last : 'm last list }

type ('m, 'o) t = {
  init : unit -> 'o;
  step : 'o -> src:Sim.Proc_id.t -> 'm -> 'o * 'm option;
  answers : request:'m -> 'm -> bool;
  keys : (int, ('m, 'o) entry) Hashtbl.t;
  mutable byz : 'm Byz.behaviour option;
}

let create (type m o) ((module P) : (m, o) protocol) ~answers ~cfg ~index =
  {
    init = (fun () -> P.obj_init ~cfg ~index);
    step = P.obj_handle;
    answers;
    keys = Hashtbl.create 16;
    byz = None;
  }

let entry h key =
  match Hashtbl.find_opt h.keys key with
  | Some e -> e
  | None ->
      let e = { obj = h.init (); last = [] } in
      Hashtbl.replace h.keys key e;
      e

let handle h ~key ~src ~now m =
  match h.byz with
  | Some b -> b.Byz.handle ~src ~now m
  | None -> (
      let e = entry h key in
      let last = List.find_opt (fun l -> Sim.Proc_id.equal l.who src) e.last in
      match last with
      | Some l when h.answers ~request:m l.reply -> [ (src, l.reply) ]
      | _ -> (
          let obj, reply = h.step e.obj ~src m in
          e.obj <- obj;
          match reply with
          | None -> []
          | Some r ->
              (match last with
              | Some l -> l.reply <- r
              | None -> e.last <- { who = src; reply = r } :: e.last);
              [ (src, r) ]))

let byzantine h b = h.byz <- Some b

let restart h ~wipe =
  h.byz <- None;
  if wipe then Hashtbl.reset h.keys

let version = 2

let max_frame = 16 * 1024 * 1024

let magic1 = 'R'

let magic2 = 'B'

type error = string

(* ----- pooled byte buffers ---------------------------------------------- *)

(* Connections churn (reconnects, short-lived sessions) but their buffer
   needs are uniform: a few KiB steady-state, occasionally more for a
   large frame.  The arena recycles power-of-two buffers between 4 KiB
   and 64 KiB so steady-state encode/decode never asks the GC for fresh
   backing storage; anything larger is a one-off allocation that is
   deliberately *not* retained (see [Reader] shrinking below). *)
module Pool = struct
  let min_cap = 4096

  let max_cap = 65536

  let per_class = 64

  (* classes: 4096 lsl i for i = 0..4 *)
  let n_classes = 5

  let stacks : Bytes.t list array = Array.make n_classes []

  let depth = Array.make n_classes 0

  let mutex = Mutex.create ()

  let class_of cap =
    let rec go i sz = if sz >= cap then Some i else if i + 1 >= n_classes then None else go (i + 1) (sz * 2) in
    if cap > max_cap then None else go 0 min_cap

  let round_up cap =
    let rec go sz = if sz >= cap then sz else go (sz * 2) in
    go min_cap

  let take cap =
    match class_of cap with
    | None -> Bytes.create (round_up cap)
    | Some c -> (
        Mutex.lock mutex;
        let b =
          match stacks.(c) with
          | b :: rest ->
              stacks.(c) <- rest;
              depth.(c) <- depth.(c) - 1;
              Some b
          | [] -> None
        in
        Mutex.unlock mutex;
        match b with Some b -> b | None -> Bytes.create (min_cap lsl c))

  let give b =
    let len = Bytes.length b in
    match class_of len with
    | Some c when min_cap lsl c = len ->
        Mutex.lock mutex;
        if depth.(c) < per_class then begin
          stacks.(c) <- b :: stacks.(c);
          depth.(c) <- depth.(c) + 1
        end;
        Mutex.unlock mutex
    | _ -> ()
end

(* ----- encode scratch ---------------------------------------------------- *)

(* A reusable append buffer: the per-connection encode scratch.  Frames
   are appended back to back ([encode_frame_into]) and flushed with one
   [write], which is both the zero-allocation encode path and the frame
   batching path — length-prefixed frames self-delimit, so N frames per
   write is wire-compatible with single-frame writes.  [sent] tracks the
   prefix already written by a partial non-blocking flush. *)
module Out = struct
  type t = { mutable buf : Bytes.t; mutable len : int; mutable sent : int }

  let create () = { buf = Pool.take Pool.min_cap; len = 0; sent = 0 }

  let length t = t.len

  let pending t = t.len - t.sent

  let clear t =
    t.len <- 0;
    t.sent <- 0

  let contents t = Bytes.sub_string t.buf 0 t.len

  let ensure t extra =
    let need = t.len + extra in
    if need > Bytes.length t.buf then begin
      let nb = Pool.take (max need (2 * Bytes.length t.buf)) in
      Bytes.blit t.buf 0 nb 0 t.len;
      Pool.give t.buf;
      t.buf <- nb
    end

  (* After a one-off large frame, fall back to a pool-class buffer so
     the scratch does not retain peak capacity forever. *)
  let maybe_shrink t =
    if t.len = 0 && Bytes.length t.buf > Pool.max_cap then t.buf <- Pool.take Pool.min_cap

  let recycle t =
    Pool.give t.buf;
    t.buf <- Bytes.empty;
    t.len <- 0;
    t.sent <- 0
end

let out_u8 (o : Out.t) n =
  Out.ensure o 1;
  Bytes.unsafe_set o.buf o.len (Char.unsafe_chr (n land 0xff));
  o.len <- o.len + 1

(* Zigzag LEB128: small magnitudes (timestamps, indices) cost one byte,
   and the logical shift below treats the zigzagged value as a 63-bit
   pattern, so the whole int range (min_int included) round-trips.  The
   loop is a top-level function: a local one would allocate a closure
   over [o] for every integer. *)
let rec out_varint o z =
  if z >= 0 && z < 0x80 then out_u8 o z
  else begin
    out_u8 o (0x80 lor (z land 0x7f));
    out_varint o (z lsr 7)
  end

let out_int o n = out_varint o ((n lsl 1) lxor (n asr 62))

let out_string (o : Out.t) s =
  let n = String.length s in
  out_int o n;
  Out.ensure o n;
  Bytes.blit_string s 0 o.buf o.len n;
  o.len <- o.len + n

let out_value o = function
  | Core.Value.Bottom -> out_u8 o 0
  | Core.Value.V s ->
      out_u8 o 1;
      out_string o s

let out_tsval o (tv : Core.Tsval.t) =
  out_int o tv.ts;
  out_value o tv.v

(* Folding with top-level functions threads [o] as the accumulator, so
   the hot encode path allocates no per-call closures or binding
   lists. *)
let out_int_map_entry k v o =
  out_int o k;
  out_int o v;
  o

let out_int_map o m =
  out_int o (Core.Ints.Map.cardinal m);
  ignore (Core.Ints.Map.fold out_int_map_entry m o)

let out_matrix_row obj row o =
  out_int o obj;
  out_int_map o row;
  o

let out_matrix o m =
  out_int o (Core.Tsr_matrix.row_count m);
  ignore (Core.Tsr_matrix.fold_rows out_matrix_row m o)

let out_wtuple o (w : Core.Wtuple.t) =
  out_tsval o w.tsval;
  out_matrix o w.tsrarray

let out_history_entry ts { Core.History_store.pw; w } o =
  out_int o ts;
  out_tsval o pw;
  (match w with
  | None -> out_u8 o 0
  | Some w ->
      out_u8 o 1;
      out_wtuple o w);
  o

let out_history o h =
  out_int o (Core.History_store.length h);
  ignore (Core.History_store.fold out_history_entry h o)

(* ----- decoding primitives --------------------------------------------- *)

exception Fail of string

let fail fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt

(* The decoder reads straight out of the connection's receive buffer
   (no per-frame copy); [get_string] and friends copy what they keep,
   so nothing aliases the buffer after a decode returns. *)
type dec = { src : Bytes.t; mutable pos : int; limit : int }

let remaining d = d.limit - d.pos

let get_u8 d =
  if d.pos >= d.limit then fail "truncated (u8 at %d)" d.pos
  else begin
    let c = Bytes.get_uint8 d.src d.pos in
    d.pos <- d.pos + 1;
    c
  end

let rec get_varint d acc shift =
  if shift > 62 then fail "varint too long at %d" d.pos
  else
    let b = get_u8 d in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else get_varint d acc (shift + 7)

let get_int d =
  let z = get_varint d 0 0 in
  (z lsr 1) lxor (-(z land 1))

let get_length d ~what =
  let n = get_int d in
  if n < 0 then fail "negative %s length %d" what n
  else if n > remaining d then
    fail "%s length %d exceeds remaining %d bytes" what n (remaining d)
  else n

let get_string d =
  let n = get_length d ~what:"string" in
  let s = Bytes.sub_string d.src d.pos n in
  d.pos <- d.pos + n;
  s

let get_value d =
  match get_u8 d with
  | 0 -> Core.Value.Bottom
  | 1 -> Core.Value.V (get_string d)
  | t -> fail "bad value tag %d" t

let get_tsval d =
  let ts = get_int d in
  let v = get_value d in
  Core.Tsval.make ~ts ~v

(* Collection counts are validated against the remaining byte budget
   (every element costs at least one byte) before any element decodes,
   so a forged count cannot trigger unbounded work. *)
let get_count d ~what =
  let n = get_int d in
  if n < 0 then fail "negative %s count %d" what n
  else if n > remaining d then
    fail "%s count %d exceeds remaining %d bytes" what n (remaining d)
  else n

let get_int_map d =
  let n = get_count d ~what:"map" in
  let rec go acc i =
    if i = n then acc
    else
      let k = get_int d in
      let v = get_int d in
      go (Core.Ints.Map.add k v acc) (i + 1)
  in
  go Core.Ints.Map.empty 0

let get_matrix d =
  let n = get_count d ~what:"matrix row" in
  let rec go acc i =
    if i = n then acc
    else
      let obj = get_int d in
      let row = get_int_map d in
      go (Core.Tsr_matrix.set_row acc ~obj row) (i + 1)
  in
  go Core.Tsr_matrix.empty 0

(* On a read-heavy wire, successive acks repeat the same write tuple in
   almost every frame, and rebuilding its matrix of maps per ack is the
   single largest decode cost.  Intern by raw encoded bytes: if the
   incoming bytes start with the exact encoding seen last time, skip the
   parse and return the previously decoded tuple.  This is sound because
   the parser is deterministic and consumes left-to-right — an identical
   byte prefix replays the identical parse — and the count-vs-remaining
   guards only get a larger budget than the parse they already passed.
   The sharing also lets Wtuple.compare short-circuit on physical
   equality in the reader automaton's candidate maps.  One slot per
   domain: systhreads within a domain are serialized by the runtime
   lock, and each server domain has its own slot. *)
let wtuple_cache : (Bytes.t * Core.Wtuple.t) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let bytes_match src pos cached len =
  let rec go i =
    i = len
    || Char.equal (Bytes.unsafe_get src (pos + i)) (Bytes.unsafe_get cached i)
       && go (i + 1)
  in
  go 0

let get_wtuple d =
  let cache = Domain.DLS.get wtuple_cache in
  let start = d.pos in
  let cached =
    match !cache with
    | Some (cb, w) ->
        let len = Bytes.length cb in
        if d.limit - start >= len && bytes_match d.src start cb len then begin
          d.pos <- start + len;
          Some w
        end
        else None
    | None -> None
  in
  match cached with
  | Some w -> w
  | None ->
      let tsval = get_tsval d in
      let tsrarray = get_matrix d in
      let w = Core.Wtuple.make ~tsval ~tsrarray in
      cache := Some (Bytes.sub d.src start (d.pos - start), w);
      w

let get_history d =
  let n = get_count d ~what:"history" in
  let rec go acc i =
    if i = n then acc
    else
      let ts = get_int d in
      let pw = get_tsval d in
      let w =
        match get_u8 d with
        | 0 -> None
        | 1 -> Some (get_wtuple d)
        | t -> fail "bad history entry tag %d" t
      in
      go (Core.History_store.set acc ~ts { Core.History_store.pw; w }) (i + 1)
  in
  go Core.History_store.empty 0

(* ----- per-protocol message codecs -------------------------------------- *)

type 'm t = {
  name : string;
  encode : Out.t -> 'm -> unit;
  decode : dec -> 'm;  (* may raise Fail; callers catch at the boundary *)
  answers : request:'m -> 'm -> bool;
}

type 'm codec = 'm t

let name c = c.name

let answers c = c.answers

let messages : Core.Messages.t t =
  let encode o (m : Core.Messages.t) =
    match m with
    | Pw { ts; pw; w } ->
        out_u8 o 0;
        out_int o ts;
        out_tsval o pw;
        out_wtuple o w
    | Pw_ack { ts; tsr } ->
        out_u8 o 1;
        out_int o ts;
        out_int_map o tsr
    | W { ts; pw; w } ->
        out_u8 o 2;
        out_int o ts;
        out_tsval o pw;
        out_wtuple o w
    | W_ack { ts } ->
        out_u8 o 3;
        out_int o ts
    | Read1 { tsr; from_ts } ->
        out_u8 o 4;
        out_int o tsr;
        out_int o from_ts
    | Read2 { tsr; from_ts } ->
        out_u8 o 5;
        out_int o tsr;
        out_int o from_ts
    | Read1_ack { tsr; pw; w } ->
        out_u8 o 6;
        out_int o tsr;
        out_tsval o pw;
        out_wtuple o w
    | Read2_ack { tsr; pw; w } ->
        out_u8 o 7;
        out_int o tsr;
        out_tsval o pw;
        out_wtuple o w
    | Read1_ack_h { tsr; history } ->
        out_u8 o 8;
        out_int o tsr;
        out_history o history
    | Read2_ack_h { tsr; history } ->
        out_u8 o 9;
        out_int o tsr;
        out_history o history
  in
  let decode d : Core.Messages.t =
    match get_u8 d with
    | 0 ->
        let ts = get_int d in
        let pw = get_tsval d in
        let w = get_wtuple d in
        Pw { ts; pw; w }
    | 1 ->
        let ts = get_int d in
        let tsr = get_int_map d in
        Pw_ack { ts; tsr }
    | 2 ->
        let ts = get_int d in
        let pw = get_tsval d in
        let w = get_wtuple d in
        W { ts; pw; w }
    | 3 -> W_ack { ts = get_int d }
    | 4 ->
        let tsr = get_int d in
        let from_ts = get_int d in
        Read1 { tsr; from_ts }
    | 5 ->
        let tsr = get_int d in
        let from_ts = get_int d in
        Read2 { tsr; from_ts }
    | 6 ->
        let tsr = get_int d in
        let pw = get_tsval d in
        let w = get_wtuple d in
        Read1_ack { tsr; pw; w }
    | 7 ->
        let tsr = get_int d in
        let pw = get_tsval d in
        let w = get_wtuple d in
        Read2_ack { tsr; pw; w }
    | 8 ->
        let tsr = get_int d in
        let history = get_history d in
        Read1_ack_h { tsr; history }
    | 9 ->
        let tsr = get_int d in
        let history = get_history d in
        Read2_ack_h { tsr; history }
    | t -> fail "bad core message tag %d" t
  in
  { name = "core"; encode; decode; answers = Core.Messages.answers }

let abd : Baseline.Abd.msg t =
  let encode o (m : Baseline.Abd.msg) =
    match m with
    | Write_req { ts; v } ->
        out_u8 o 0;
        out_int o ts;
        out_value o v
    | Write_ack { ts } ->
        out_u8 o 1;
        out_int o ts
    | Read_req { rid } ->
        out_u8 o 2;
        out_int o rid
    | Read_ack { rid; ts; v } ->
        out_u8 o 3;
        out_int o rid;
        out_int o ts;
        out_value o v
    | Write_back { rid; ts; v } ->
        out_u8 o 4;
        out_int o rid;
        out_int o ts;
        out_value o v
    | Write_back_ack { rid } ->
        out_u8 o 5;
        out_int o rid
  in
  let decode d : Baseline.Abd.msg =
    match get_u8 d with
    | 0 ->
        let ts = get_int d in
        let v = get_value d in
        Write_req { ts; v }
    | 1 -> Write_ack { ts = get_int d }
    | 2 -> Read_req { rid = get_int d }
    | 3 ->
        let rid = get_int d in
        let ts = get_int d in
        let v = get_value d in
        Read_ack { rid; ts; v }
    | 4 ->
        let rid = get_int d in
        let ts = get_int d in
        let v = get_value d in
        Write_back { rid; ts; v }
    | 5 -> Write_back_ack { rid = get_int d }
    | t -> fail "bad abd message tag %d" t
  in
  { name = "abd"; encode; decode; answers = Baseline.Abd.answers }

let finish_strict d ~what v =
  if remaining d > 0 then fail "%d trailing bytes after %s" (remaining d) what
  else v

let encode_msg c m =
  let o = Out.create () in
  c.encode o m;
  let s = Out.contents o in
  Out.recycle o;
  s

let decode_msg c s =
  let d = { src = Bytes.unsafe_of_string s; pos = 0; limit = String.length s } in
  match finish_strict d ~what:"message" (c.decode d) with
  | m -> Ok m
  | exception Fail e -> Error e

(* ----- frames ----------------------------------------------------------- *)

type 'm frame =
  | Hello of { proto : string; sender : string; obj : int }
  | Hello_ack of { proto : string; obj : int }
  | Msg_key of { key : int; sender : string; msg : 'm }
  | Err of string

let frame_info ~msg_info = function
  | Hello { proto; sender; obj } ->
      Printf.sprintf "HELLO(proto=%s,sender=%s,obj=%d)" proto sender obj
  | Hello_ack { proto; obj } ->
      Printf.sprintf "HELLO_ACK(proto=%s,obj=%d)" proto obj
  | Msg_key { key; sender; msg } ->
      Printf.sprintf "MSG_KEY(key=%d,sender=%s,%s)" key sender (msg_info msg)
  | Err e -> Printf.sprintf "ERR(%s)" e

(* Kinds 2 and 4 were the untagged frames of wire version 1; their
   numbers stay unused. *)
let kind_hello = 0

let kind_hello_ack = 1

let kind_err = 3

let kind_msg_key = 5

(* Append one full frame (length prefix included) to the scratch.  The
   body is encoded in place and the length patched afterwards, so the
   steady-state cost is the bytes themselves — no intermediate buffer. *)
let encode_frame_into c (o : Out.t) frame =
  let start = o.len in
  Out.ensure o 8;
  o.len <- start + 4;
  out_u8 o (Char.code magic1);
  out_u8 o (Char.code magic2);
  out_u8 o version;
  (match frame with
  | Hello { proto; sender; obj } ->
      out_u8 o kind_hello;
      out_string o proto;
      out_string o sender;
      out_int o obj
  | Hello_ack { proto; obj } ->
      out_u8 o kind_hello_ack;
      out_string o proto;
      out_int o obj
  | Msg_key { key; sender; msg } ->
      out_u8 o kind_msg_key;
      out_int o key;
      out_string o sender;
      c.encode o msg
  | Err e ->
      out_u8 o kind_err;
      out_string o e);
  let payload = o.len - start - 4 in
  if payload > max_frame then begin
    o.len <- start;
    invalid_arg (Printf.sprintf "Codec.encode_frame: %d-byte frame" payload)
  end;
  Bytes.set_uint8 o.buf start ((payload lsr 24) land 0xff);
  Bytes.set_uint8 o.buf (start + 1) ((payload lsr 16) land 0xff);
  Bytes.set_uint8 o.buf (start + 2) ((payload lsr 8) land 0xff);
  Bytes.set_uint8 o.buf (start + 3) (payload land 0xff)

let encode_frame c frame =
  let o = Out.create () in
  encode_frame_into c o frame;
  let s = Out.contents o in
  Out.recycle o;
  s

let decode_payload_dec c d =
  let go () =
    if get_u8 d <> Char.code magic1 || get_u8 d <> Char.code magic2 then
      fail "bad magic"
    else begin
      let v = get_u8 d in
      if v <> version then fail "unsupported wire version %d (expected %d)" v version;
      let kind = get_u8 d in
      if kind = kind_hello then begin
        let proto = get_string d in
        let sender = get_string d in
        let obj = get_int d in
        Hello { proto; sender; obj }
      end
      else if kind = kind_hello_ack then begin
        let proto = get_string d in
        let obj = get_int d in
        Hello_ack { proto; obj }
      end
      else if kind = kind_msg_key then begin
        let key = get_int d in
        if key < 0 then fail "negative key id %d" key;
        let sender = get_string d in
        Msg_key { key; sender; msg = c.decode d }
      end
      else if kind = kind_err then Err (get_string d)
      else fail "bad frame kind %d" kind
    end
  in
  match finish_strict d ~what:"frame" (go ()) with
  | f -> Ok f
  | exception Fail e -> Error e

let decode_payload c s =
  decode_payload_dec c
    { src = Bytes.unsafe_of_string s; pos = 0; limit = String.length s }

(* A Byzantine object's garbage: every byte of the frame at [at] past
   its length prefix and fixed header (magic, version, kind) flipped, so
   it still parses as a frame of its kind but its body is garbage. *)
let corrupt_frame (o : Out.t) ~at =
  for i = at + 8 to o.len - 1 do
    Bytes.set_uint8 o.buf i (Bytes.get_uint8 o.buf i lxor 0xa5)
  done

(* ----- incremental reader ----------------------------------------------- *)

module Reader = struct
  type t = { mutable buf : Bytes.t; mutable start : int; mutable len : int }

  let create () = { buf = Pool.take Pool.min_cap; start = 0; len = 0 }

  let pending r = r.len

  let capacity r = Bytes.length r.buf

  let reset r =
    r.start <- 0;
    r.len <- 0;
    if Bytes.length r.buf > Pool.max_cap then r.buf <- Pool.take Pool.min_cap

  let recycle r =
    Pool.give r.buf;
    r.buf <- Bytes.empty;
    r.start <- 0;
    r.len <- 0

  let make_room r extra =
    if r.start + r.len + extra > Bytes.length r.buf then begin
      let need = r.len + extra in
      if need <= Bytes.length r.buf then begin
        (* compact in place *)
        Bytes.blit r.buf r.start r.buf 0 r.len;
        r.start <- 0
      end
      else begin
        let nb = Pool.take (max need (2 * Bytes.length r.buf)) in
        Bytes.blit r.buf r.start nb 0 r.len;
        Pool.give r.buf;
        r.buf <- nb;
        r.start <- 0
      end
    end

  (* After a large frame drains, drop back to a pool-class buffer
     instead of retaining peak capacity for the connection's lifetime. *)
  let maybe_shrink r =
    if Bytes.length r.buf > Pool.max_cap && r.len <= Pool.min_cap then begin
      let nb = Pool.take Pool.min_cap in
      Bytes.blit r.buf r.start nb 0 r.len;
      r.buf <- nb;
      r.start <- 0
    end

  let feed r b off len =
    if off < 0 || len < 0 || off + len > Bytes.length b then
      invalid_arg "Codec.Reader.feed";
    make_room r len;
    Bytes.blit b off r.buf (r.start + r.len) len;
    r.len <- r.len + len

  let peek_len r =
    let at i = Bytes.get_uint8 r.buf (r.start + i) in
    (at 0 lsl 24) lor (at 1 lsl 16) lor (at 2 lsl 8) lor at 3

  let next c r =
    if r.len < 4 then Ok `Awaiting
    else
      let n = peek_len r in
      if n > max_frame then
        Error (Printf.sprintf "frame length %d exceeds limit %d" n max_frame)
      else if n < 4 then Error (Printf.sprintf "frame length %d too short" n)
      else if r.len < 4 + n then Ok `Awaiting
      else begin
        (* decode in place out of the receive buffer — no payload copy *)
        let d = { src = r.buf; pos = r.start + 4; limit = r.start + 4 + n } in
        r.start <- r.start + 4 + n;
        r.len <- r.len - 4 - n;
        if r.len = 0 then r.start <- 0;
        (* decode before shrinking: [d] reads from the current buffer,
           which must not go back to the (shared) pool underneath it *)
        let res = decode_payload_dec c d in
        maybe_shrink r;
        match res with Ok f -> Ok (`Frame f) | Error e -> Error e
      end
end

(* ----- blocking socket helpers ------------------------------------------ *)

let send fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      let n = Unix.write_substring fd s off (len - off) in
      go (off + n)
  in
  go 0

let flush fd (o : Out.t) =
  let rec go () =
    if o.sent < o.len then begin
      let n = Unix.write fd o.buf o.sent (o.len - o.sent) in
      o.sent <- o.sent + n;
      go ()
    end
  in
  go ();
  Out.clear o;
  Out.maybe_shrink o

let flush_nonblock fd (o : Out.t) =
  let rec go () =
    if o.sent >= o.len then begin
      Out.clear o;
      Out.maybe_shrink o;
      `Done
    end
    else
      match Unix.write fd o.buf o.sent (o.len - o.sent) with
      | n ->
          o.sent <- o.sent + n;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          `Blocked
  in
  go ()

let recv_into fd (r : Reader.t) =
  let free () = Bytes.length r.buf - r.start - r.len in
  if free () < 1024 then Reader.make_room r (max 4096 (Bytes.length r.buf));
  let n = Unix.read fd r.buf (r.start + r.len) (free ()) in
  if n > 0 then r.len <- r.len + n;
  n

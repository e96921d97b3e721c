module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  (* Deterministic float rendering: shortest decimal round-trip would be
     ideal, but a fixed %g with enough digits is stable and readable;
     non-finite floats (histogram sentinels) encode as strings. *)
  let float_repr x =
    if Float.is_integer x && Float.abs x < 1e15 then
      Printf.sprintf "%.0f" x
    else Printf.sprintf "%.9g" x

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float x ->
        if Float.is_finite x then Buffer.add_string buf (float_repr x)
        else begin
          Buffer.add_char buf '"';
          Buffer.add_string buf (if x > 0.0 then "inf" else if x < 0.0 then "-inf" else "nan");
          Buffer.add_char buf '"'
        end
    | Str s ->
        Buffer.add_char buf '"';
        escape buf s;
        Buffer.add_char buf '"'
    | List xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            write buf x)
          xs;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            escape buf k;
            Buffer.add_string buf "\":";
            write buf v)
          fields;
        Buffer.add_char buf '}'

  let to_string j =
    let buf = Buffer.create 256 in
    write buf j;
    Buffer.contents buf

  let of_option f = function None -> Null | Some x -> f x

  (* Minimal recursive-descent parser covering exactly what [write]
     emits (plus arbitrary whitespace): the inverse needed to merge
     per-process metric exports without an external dependency. *)
  exception Parse of string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse (Printf.sprintf "at %d: %s" !pos msg)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while
        !pos < n
        && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
      do
        advance ()
      done
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> advance ()
          | '\\' ->
              advance ();
              (if !pos >= n then fail "unterminated escape"
               else
                 match s.[!pos] with
                 | '"' -> Buffer.add_char buf '"'; advance ()
                 | '\\' -> Buffer.add_char buf '\\'; advance ()
                 | '/' -> Buffer.add_char buf '/'; advance ()
                 | 'n' -> Buffer.add_char buf '\n'; advance ()
                 | 'r' -> Buffer.add_char buf '\r'; advance ()
                 | 't' -> Buffer.add_char buf '\t'; advance ()
                 | 'b' -> Buffer.add_char buf '\b'; advance ()
                 | 'f' -> Buffer.add_char buf '\012'; advance ()
                 | 'u' ->
                     advance ();
                     if !pos + 4 > n then fail "truncated \\u escape";
                     let code =
                       try int_of_string ("0x" ^ String.sub s !pos 4)
                       with Failure _ -> fail "bad \\u escape"
                     in
                     pos := !pos + 4;
                     (* The writer only emits \u for control chars; be
                        lenient and UTF-8 encode anything else. *)
                     if code < 0x80 then Buffer.add_char buf (Char.chr code)
                     else if code < 0x800 then begin
                       Buffer.add_char buf
                         (Char.chr (0xC0 lor (code lsr 6)));
                       Buffer.add_char buf
                         (Char.chr (0x80 lor (code land 0x3F)))
                     end
                     else begin
                       Buffer.add_char buf
                         (Char.chr (0xE0 lor (code lsr 12)));
                       Buffer.add_char buf
                         (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                       Buffer.add_char buf
                         (Char.chr (0x80 lor (code land 0x3F)))
                     end
                 | c -> fail (Printf.sprintf "bad escape \\%C" c));
              go ()
          | c ->
              Buffer.add_char buf c;
              advance ();
              go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_float = ref false in
      let rec go () =
        match peek () with
        | Some ('0' .. '9' | '-' | '+') ->
            advance ();
            go ()
        | Some ('.' | 'e' | 'E') ->
            is_float := true;
            advance ();
            go ()
        | _ -> ()
      in
      go ();
      let tok = String.sub s start (!pos - start) in
      if !is_float then
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "bad number %S" tok)
      else
        match int_of_string_opt tok with
        | Some i -> Int i
        | None -> (
            (* out-of-range integer literal: keep it as a float *)
            match float_of_string_opt tok with
            | Some f -> Float f
            | None -> fail (Printf.sprintf "bad number %S" tok))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            List []
          end
          else begin
            let items = ref [ parse_value () ] in
            let rec more () =
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items := parse_value () :: !items;
                  more ()
              | Some ']' -> advance ()
              | _ -> fail "expected ',' or ']'"
            in
            more ();
            List (List.rev !items)
          end
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let field () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              (k, v)
            in
            let fields = ref [ field () ] in
            let rec more () =
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  fields := field () :: !fields;
                  more ()
              | Some '}' -> advance ()
              | _ -> fail "expected ',' or '}'"
            in
            more ();
            Obj (List.rev !fields)
          end
      | Some c -> fail (Printf.sprintf "unexpected %C" c)
    in
    match parse_value () with
    | v ->
        skip_ws ();
        if !pos <> n then Error (Printf.sprintf "at %d: trailing input" !pos)
        else Ok v
    | exception Parse msg -> Error msg

  let member k = function
    | Obj fields -> List.assoc_opt k fields
    | _ -> None
end

let span_json (s : Span.t) =
  Json.Obj
    [
      ("id", Json.Int s.Span.id);
      ("kind", Json.Str (Span.kind_to_string s.Span.kind));
      ("proc", Json.Str s.Span.proc);
      ( "reader",
        match s.Span.kind with
        | Span.Read { reader } -> Json.Int reader
        | Span.Write -> Json.Null );
      ("start", Json.Int s.Span.started_at);
      ("end", Json.of_option (fun t -> Json.Int t) s.Span.completed_at);
      ("rounds", Json.Int s.Span.rounds);
      ( "reported_rounds",
        Json.of_option (fun r -> Json.Int r) s.Span.reported_rounds );
      ( "transitions",
        Json.List
          (List.map
             (fun (round, at) -> Json.List [ Json.Int round; Json.Int at ])
             (Span.transitions s)) );
      ( "contacted",
        Json.List (List.map (fun i -> Json.Int i) (Span.contacted s)) );
      ("replies", Json.Int s.Span.replies);
      ("result", Json.of_option (fun v -> Json.Str v) s.Span.result);
      ("trace_first", Json.Int s.Span.trace_first);
      ("trace_len", Json.Int s.Span.trace_len);
    ]

let span_line s = Json.to_string (span_json s)

let spans_jsonl spans =
  let buf = Buffer.create 4096 in
  List.iter
    (fun s ->
      Buffer.add_string buf (span_line s);
      Buffer.add_char buf '\n')
    spans;
  Buffer.contents buf

let histogram_json h =
  Json.Obj
    [
      ("count", Json.Int (Metrics.Histogram.count h));
      ("sum", Json.Float (Metrics.Histogram.sum h));
      ( "min",
        if Metrics.Histogram.count h = 0 then Json.Null
        else Json.Float (Metrics.Histogram.min_exn h) );
      ( "max",
        if Metrics.Histogram.count h = 0 then Json.Null
        else Json.Float (Metrics.Histogram.max_exn h) );
      ( "buckets",
        Json.List
          (List.map
             (fun (_, hi, c) -> Json.List [ Json.Float hi; Json.Int c ])
             (Metrics.Histogram.buckets h)) );
    ]

let metrics_jsonl ?(labels = []) m =
  let buf = Buffer.create 4096 in
  let base = List.map (fun (k, v) -> (k, Json.Str v)) labels in
  let line fields =
    Buffer.add_string buf (Json.to_string (Json.Obj (base @ fields)));
    Buffer.add_char buf '\n'
  in
  List.iter
    (fun (name, v) ->
      line
        [
          ("metric", Json.Str name); ("type", Json.Str "counter");
          ("value", Json.Int v);
        ])
    (Metrics.counters m);
  List.iter
    (fun (name, h) ->
      line
        [
          ("metric", Json.Str name); ("type", Json.Str "histogram");
          ("data", histogram_json h);
        ])
    (Metrics.histograms m);
  Buffer.contents buf

(* Inverse of {!metrics_jsonl}: fold every metric line into a fresh
   registry, which is how a registry crosses a process boundary —
   counters add, and histograms rebuild from their buckets and merge. *)
let metrics_of_jsonl text =
  let into = Metrics.create () in
  let float_field = function
    | Json.Int i -> Some (float_of_int i)
    | Json.Float f -> Some f
    | Json.Str "inf" -> Some infinity
    | Json.Str "-inf" -> Some neg_infinity
    | Json.Str "nan" -> Some nan
    | _ -> None
  in
  let histogram_of_data data =
    match Json.member "buckets" data with
    | Some (Json.List entries) -> (
        let parsed =
          List.map
            (function
              | Json.List [ hi; Json.Int c ] -> (
                  match float_field hi with
                  | Some hi -> Some (hi, c)
                  | None -> None)
              | _ -> None)
            entries
        in
        if List.exists Option.is_none parsed then Error "bad bucket entry"
        else
          let parsed = List.map Option.get parsed in
          (* Finite upper bounds are the histogram's bounds; the final
             "inf" bucket is the overflow slot. *)
          let bounds =
            parsed
            |> List.filter (fun (hi, _) -> Float.is_finite hi)
            |> List.map fst |> Array.of_list
          in
          let counts = Array.of_list (List.map snd parsed) in
          if Array.length counts <> Array.length bounds + 1 then
            Error "buckets must end with one overflow bucket"
          else
            let get name d =
              match Json.member name data with
              | Some v -> Option.value (float_field v) ~default:d
              | None -> d
            in
            match
              Metrics.Histogram.restore ~bounds ~counts ~sum:(get "sum" 0.0)
                ~minv:(get "min" infinity)
                ~maxv:(get "max" neg_infinity)
            with
            | h -> Ok h
            | exception Invalid_argument msg -> Error msg)
    | _ -> Error "histogram data without buckets"
  in
  let line_error lineno msg =
    Error (Printf.sprintf "line %d: %s" lineno msg)
  in
  let fold_line lineno line =
    match Json.of_string line with
    | Error msg -> line_error lineno msg
    | Ok json -> (
        match (Json.member "metric" json, Json.member "type" json) with
        | Some (Json.Str name), Some (Json.Str kind) -> (
            match (kind, Json.member "value" json, Json.member "data" json) with
            | "counter", Some (Json.Int v), _ ->
                Metrics.add into name v;
                Ok ()
            | "histogram", _, Some data -> (
                match histogram_of_data data with
                | Ok h ->
                    Metrics.add_histogram into name h;
                    Ok ()
                | Error msg -> line_error lineno msg)
            | _ -> line_error lineno ("malformed " ^ kind ^ " line"))
        | _ -> line_error lineno "line without metric/type")
  in
  let rec go lineno = function
    | [] -> Ok into
    | line :: rest ->
        if String.trim line = "" then go (lineno + 1) rest
        else (
          match fold_line lineno line with
          | Ok () -> go (lineno + 1) rest
          | Error _ as e -> e)
  in
  go 1 (String.split_on_char '\n' text)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file ~path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(** Deterministic JSONL export for spans and metrics.

    The encoders are hand-rolled so the byte stream is a pure function
    of the data: field order is fixed, map iteration is sorted, floats
    render through one fixed formatter, and nothing (timestamps, host
    names, hash order) leaks in from the environment.  That determinism
    is load-bearing: the golden-trace tests compare exports byte for
    byte across runs and against checked-in files. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string

  val of_string : string -> (t, string) result
  (** Parse one JSON value (the subset {!to_string} emits, with
      arbitrary whitespace).  Integer-looking numbers come back as
      [Int], everything else as [Float]. *)

  val member : string -> t -> t option
  (** Field lookup; [None] on non-objects and absent keys. *)

  val of_option : ('a -> t) -> 'a option -> t
end

val span_json : Span.t -> Json.t

val span_line : Span.t -> string
(** One JSONL line, no trailing newline. *)

val spans_jsonl : Span.t list -> string
(** Newline-terminated line per span, in the given order. *)

val histogram_json : Metrics.Histogram.t -> Json.t

val metrics_jsonl : ?labels:(string * string) list -> Metrics.t -> string
(** One line per metric, counters then histograms, each group sorted by
    name; [labels] are prepended to every line. *)

val metrics_of_jsonl : string -> (Metrics.t, string) result
(** Inverse of {!metrics_jsonl}: a fresh registry holding every line —
    counters add, histograms rebuild from their buckets and merge.
    Labels and unknown fields are ignored; blank lines are skipped.
    Errors name the first offending line. *)

val read_file : string -> string
(** The whole file as a string (binary mode). *)

val write_file : path:string -> string -> unit

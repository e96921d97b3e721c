(** Fixed-size domain pool with chunked work-stealing.

    The pool fans an indexed family of independent tasks across OCaml 5
    domains and returns the results in input-index order, so a parallel
    run is observationally identical to the serial one whenever each
    task is a pure function of its index.  That is exactly the shape of
    this repository's heavy loops: every campaign cell, bench point and
    random-walk batch builds its own engine and PRNG from its own seed,
    so cells never share mutable state and the only cross-cell step is
    an ordered reduction (counter sums, histogram merges, list concat)
    performed by the caller on the returned array.

    Scheduling is dynamic: workers repeatedly steal the next chunk of
    indices from a shared atomic cursor, so long and short tasks mix
    without a static partition's stragglers.  Chunks only affect which
    domain computes which index — never the result order.

    Failure semantics: if any task raises, the pool finishes or
    abandons the remaining work, joins every domain, and re-raises one
    of the task exceptions (the recorded one with the smallest index)
    in the calling domain.  No exception is silently dropped. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()], at least 1.  The default
    worker count for every function below and for each [--jobs] CLI
    flag. *)

val init : ?jobs:int -> ?chunk:int -> int -> (int -> 'a) -> 'a array
(** [init ~jobs n f] computes [[| f 0; ...; f (n-1) |]] on up to [jobs]
    domains (default {!recommended_jobs}, clamped to [1 <= jobs <= n]).
    [jobs = 1] runs serially in the calling domain with no domain
    spawned at all.  [chunk] (default: [n / (8 * jobs)], at least 1)
    sets the steal granularity.  [f] must be safe to call from another
    domain and must not share unsynchronized mutable state across
    indices. *)

val map : ?jobs:int -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] = [List.map f xs], fanned across domains; result order
    is the input order regardless of [jobs]. *)

val timed : int -> (int -> unit -> 'a) -> (float * 'a) array
(** [timed k f] runs [k] clients at once, client [c] on a domain of its
    own: client 0 on the calling domain and [1..k-1] on spawned ones, so
    [k = 1] runs serially with no domain spawned, as [init ~jobs:1]
    does.  Each client first evaluates [f c] (untimed: it draws the
    client's work and returns the body to time); once every client has,
    all start their bodies off one barrier.  Client [c]'s result, in
    index order, comes with its body's seconds on the monotonic clock;
    the pass's wall-clock is the slowest client's.  If a client raises,
    the others still finish and are joined before the exception of the
    smallest such index is re-raised.
    @raise Invalid_argument if [k < 1]. *)

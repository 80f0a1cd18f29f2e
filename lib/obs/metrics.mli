(** Central metrics registry: counters, gauges and histograms, each
    identified by a name plus an optional label set, exported as JSON or
    Prometheus text.

    Instruments are process-global and get-or-create: asking twice for the
    same (name, labels) returns the same instrument, so independent
    subsystems can meet on a metric without coordination.  Updates are
    atomic and safe from any domain; creation takes the registry lock and
    is expected to happen at setup time (hot paths hold the instrument).

    Subsystems whose counters live elsewhere (the compile cache, the
    runtime profiler) register a {e source}: a closure producing samples at
    export time, so occupancy gauges are always current without polling. *)

type kind = Counter | Gauge | Histogram

type value =
  | V_int of int
  | V_float of float
  | V_histogram of (float * int) list * float * int
      (** cumulative (upper-bound, count) buckets, sum, total count *)

type sample = {
  s_name : string;
  s_labels : (string * string) list;
  s_help : string;
  s_kind : kind;
  s_value : value;
}

type counter
type gauge
type histogram

val counter : ?help:string -> ?labels:(string * string) list -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : ?help:string -> ?labels:(string * string) list -> string -> gauge
val set_gauge : gauge -> float -> unit
val add_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram : ?help:string -> ?labels:(string * string) list ->
  ?bounds:float array -> string -> histogram
(** [bounds] are bucket upper bounds in ascending order (an implicit +inf
    bucket is added); the default covers 1µs…10s exponentially. *)

val observe : histogram -> float -> unit

val find_histogram : ?labels:(string * string) list -> string -> histogram option
(** Read a histogram back without creating it — [None] if never
    registered (or registered as another kind). *)

val quantile : histogram -> float -> float
(** [quantile h q] estimates the [q]-quantile ([0..1]) by linear
    interpolation inside the bucket holding the target rank
    (histogram_quantile-style); 0 when empty, clamped to the last finite
    bound for observations beyond it. *)

val quantile_sum : histogram list -> float -> float
(** Like {!quantile} over the merged counts of several same-bounds series
    (e.g. one family's per-label histograms). *)

val register_source : string -> (unit -> sample list) -> unit
(** Install (or replace — the name is the identity) a pull-time sample
    producer. *)

val samples : unit -> sample list
(** Everything: registered instruments first, then sources, in
    registration order. *)

val to_json : unit -> string
(** [{"metrics": [...]}], one object per sample. *)

val to_prometheus : unit -> string
(** Prometheus text exposition format (counters get a [_total] suffix,
    histograms expand to [_bucket]/[_sum]/[_count]). *)

val write_file : ?format:[ `Json | `Prometheus ] -> string -> unit

val write_record : string -> record:string -> command:string ->
  info:(string * string) list -> (string * float * string) list -> unit
(** [write_record path ~record ~command ~info metrics] writes one bench
    record: [{"record", "host", "command", "info": {key: string},
    "metrics": {name: {"value": number, "unit": string}}}].  [metrics] are
    (name, value, unit); the metrics object has perfbench's shape.  "host"
    names the CPU count and OCaml version.  @raise Invalid_argument on a
    non-finite value. *)

val check_metrics : Json_min.t -> (string, string) result
(** Check the [metrics] member of a JSON file ([wolfc obs-check]).  An
    object is a bench record: it must be non-empty and every entry needs a
    numeric "value" and a string "unit".  An array is a registry export
    ({!to_json}): every sample needs a name and a value (or histogram
    buckets and count).  [Ok] carries a one-line summary. *)

val reset : unit -> unit
(** Zero every instrument and forget every source (tests). Instruments
    stay registered so held references keep working. *)

type kind = Counter | Gauge | Histogram

type value =
  | V_int of int
  | V_float of float
  | V_histogram of (float * int) list * float * int

type sample = {
  s_name : string;
  s_labels : (string * string) list;
  s_help : string;
  s_kind : kind;
  s_value : value;
}

(* atomic float accumulator: CAS loop over a boxed float *)
let float_add (a : float Atomic.t) d =
  let rec go () =
    let v = Atomic.get a in
    if not (Atomic.compare_and_set a v (v +. d)) then go ()
  in
  go ()

type counter = { c_meta : meta; c_v : int Atomic.t }
and gauge = { g_meta : meta; g_v : float Atomic.t }

and histogram = {
  h_meta : meta;
  h_bounds : float array;          (* ascending upper bounds; +inf implicit *)
  h_counts : int Atomic.t array;   (* one per bound, plus the +inf bucket *)
  h_sum : float Atomic.t;
  h_count : int Atomic.t;
}

and meta = { m_name : string; m_labels : (string * string) list; m_help : string }

type instrument =
  | I_counter of counter
  | I_gauge of gauge
  | I_histogram of histogram

let lock = Mutex.create ()
let table : (string, instrument) Hashtbl.t = Hashtbl.create 64
let order : string list ref = ref []            (* reverse registration order *)
let sources : (string * (unit -> sample list)) list ref = ref []

let ident name labels =
  match labels with
  | [] -> name
  | ls ->
    name ^ "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=\"" ^ v ^ "\"") ls)
    ^ "}"

let sorted_labels ls = List.sort (fun (a, _) (b, _) -> compare a b) ls

let get_or_create ~name ~labels ~help ~(make : meta -> instrument) ~(cast : instrument -> 'a option) : 'a =
  let labels = sorted_labels labels in
  let key = ident name labels in
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) @@ fun () ->
  match Hashtbl.find_opt table key with
  | Some i ->
    (match cast i with
     | Some x -> x
     | None -> invalid_arg (Printf.sprintf "Metrics: %s already registered with another kind" key))
  | None ->
    let i = make { m_name = name; m_labels = labels; m_help = help } in
    Hashtbl.replace table key i;
    order := key :: !order;
    (match cast i with Some x -> x | None -> assert false)

let counter ?(help = "") ?(labels = []) name =
  get_or_create ~name ~labels ~help
    ~make:(fun m -> I_counter { c_meta = m; c_v = Atomic.make 0 })
    ~cast:(function I_counter c -> Some c | _ -> None)

let incr c = Atomic.incr c.c_v
let add c n = ignore (Atomic.fetch_and_add c.c_v n)
let counter_value c = Atomic.get c.c_v

let gauge ?(help = "") ?(labels = []) name =
  get_or_create ~name ~labels ~help
    ~make:(fun m -> I_gauge { g_meta = m; g_v = Atomic.make 0.0 })
    ~cast:(function I_gauge g -> Some g | _ -> None)

let set_gauge g v = Atomic.set g.g_v v
let add_gauge g d = float_add g.g_v d
let gauge_value g = Atomic.get g.g_v

let find_histogram ?(labels = []) name =
  let key = ident name (sorted_labels labels) in
  Mutex.lock lock;
  let r = Hashtbl.find_opt table key in
  Mutex.unlock lock;
  match r with Some (I_histogram h) -> Some h | _ -> None

let default_bounds =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0 |]

let histogram ?(help = "") ?(labels = []) ?(bounds = default_bounds) name =
  get_or_create ~name ~labels ~help
    ~make:(fun m ->
        I_histogram
          { h_meta = m; h_bounds = Array.copy bounds;
            h_counts = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
            h_sum = Atomic.make 0.0; h_count = Atomic.make 0 })
    ~cast:(function I_histogram h -> Some h | _ -> None)

let observe h v =
  let n = Array.length h.h_bounds in
  let rec bucket i = if i >= n || v <= h.h_bounds.(i) then i else bucket (i + 1) in
  Atomic.incr h.h_counts.(bucket 0);
  float_add h.h_sum v;
  Atomic.incr h.h_count

(* Quantile estimate in the Prometheus histogram_quantile style: find the
   bucket holding the target rank and interpolate linearly inside it.  The
   +inf bucket clamps to the last finite bound.  [quantile_sum] merges
   several series of one family (they share bounds by construction) so an
   op-agnostic p99 can be read from per-op histograms. *)
let quantile_sum hs q =
  match hs with
  | [] -> 0.0
  | h0 :: _ ->
    let n = Array.length h0.h_bounds in
    let counts = Array.make (n + 1) 0 in
    List.iter
      (fun h ->
         Array.iteri
           (fun i a -> if i <= n then counts.(i) <- counts.(i) + Atomic.get a)
           h.h_counts)
      hs;
    let total = Array.fold_left ( + ) 0 counts in
    if total = 0 then 0.0
    else begin
      let rank = q *. float_of_int total in
      let rec go i cum =
        if i > n then h0.h_bounds.(n - 1)
        else begin
          let cum' = cum + counts.(i) in
          if float_of_int cum' >= rank then begin
            let lo = if i = 0 then 0.0 else h0.h_bounds.(i - 1) in
            if i = n then lo
            else begin
              let hi = h0.h_bounds.(i) in
              if counts.(i) = 0 then hi
              else
                lo
                +. (hi -. lo) *. (rank -. float_of_int cum)
                   /. float_of_int counts.(i)
            end
          end
          else go (i + 1) cum'
        end
      in
      go 0 0
    end

let quantile h q = quantile_sum [ h ] q

let register_source name f =
  Mutex.lock lock;
  sources := (name, f) :: List.remove_assoc name !sources;
  Mutex.unlock lock

let sample_of = function
  | I_counter c ->
    { s_name = c.c_meta.m_name; s_labels = c.c_meta.m_labels;
      s_help = c.c_meta.m_help; s_kind = Counter; s_value = V_int (Atomic.get c.c_v) }
  | I_gauge g ->
    { s_name = g.g_meta.m_name; s_labels = g.g_meta.m_labels;
      s_help = g.g_meta.m_help; s_kind = Gauge; s_value = V_float (Atomic.get g.g_v) }
  | I_histogram h ->
    (* cumulative buckets, Prometheus-style *)
    let acc = ref 0 in
    let buckets =
      Array.to_list
        (Array.mapi
           (fun i bound ->
              acc := !acc + Atomic.get h.h_counts.(i);
              (bound, !acc))
           h.h_bounds)
    in
    { s_name = h.h_meta.m_name; s_labels = h.h_meta.m_labels;
      s_help = h.h_meta.m_help; s_kind = Histogram;
      s_value = V_histogram (buckets, Atomic.get h.h_sum, Atomic.get h.h_count) }

let samples () =
  Mutex.lock lock;
  let keys = List.rev !order in
  let instruments = List.map (fun k -> Hashtbl.find table k) keys in
  let srcs = List.rev !sources in
  Mutex.unlock lock;
  List.map sample_of instruments
  @ List.concat_map (fun (_, f) -> f ()) srcs

let kind_name = function Counter -> "counter" | Gauge -> "gauge" | Histogram -> "histogram"

let json_num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let to_json () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"metrics\":[";
  List.iteri
    (fun i s ->
       if i > 0 then Buffer.add_char b ',';
       Buffer.add_string b
         (Printf.sprintf "{\"name\":\"%s\",\"type\":\"%s\"" (Json_min.escape s.s_name)
            (kind_name s.s_kind));
       if s.s_help <> "" then
         Buffer.add_string b (Printf.sprintf ",\"help\":\"%s\"" (Json_min.escape s.s_help));
       if s.s_labels <> [] then begin
         Buffer.add_string b ",\"labels\":{";
         List.iteri
           (fun j (k, v) ->
              if j > 0 then Buffer.add_char b ',';
              Buffer.add_string b
                (Printf.sprintf "\"%s\":\"%s\"" (Json_min.escape k) (Json_min.escape v)))
           s.s_labels;
         Buffer.add_char b '}'
       end;
       (match s.s_value with
        | V_int n -> Buffer.add_string b (Printf.sprintf ",\"value\":%d" n)
        | V_float f -> Buffer.add_string b (Printf.sprintf ",\"value\":%s" (json_num f))
        | V_histogram (buckets, sum, count) ->
          Buffer.add_string b ",\"buckets\":[";
          List.iteri
            (fun j (le, c) ->
               if j > 0 then Buffer.add_char b ',';
               Buffer.add_string b
                 (Printf.sprintf "{\"le\":%s,\"count\":%d}" (json_num le) c))
            buckets;
          Buffer.add_string b
            (Printf.sprintf "],\"sum\":%s,\"count\":%d" (json_num sum) count));
       Buffer.add_char b '}')
    (samples ());
  Buffer.add_string b "]}";
  Buffer.contents b

(* Exposition-format escaping.  OCaml's [%S] is wrong here: it emits
   decimal escapes ["\013"] for control bytes, which Prometheus parsers
   take literally.  Label values escape backslash, double-quote and
   newline; HELP text escapes only backslash and newline. *)
let prom_escape ~quote s =
  let plain =
    String.for_all
      (fun c -> c <> '\\' && c <> '\n' && not (quote && c = '"'))
      s
  in
  if plain then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
         match c with
         | '\\' -> Buffer.add_string b "\\\\"
         | '\n' -> Buffer.add_string b "\\n"
         | '"' when quote -> Buffer.add_string b "\\\""
         | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  end

let prom_labels = function
  | [] -> ""
  | ls ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape ~quote:true v))
           ls)
    ^ "}"

let to_prometheus () =
  let b = Buffer.create 4096 in
  let seen_header : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun s ->
       let base =
         match s.s_kind with Counter -> s.s_name ^ "_total" | _ -> s.s_name
       in
       if not (Hashtbl.mem seen_header base) then begin
         Hashtbl.replace seen_header base ();
         if s.s_help <> "" then
           Buffer.add_string b
             (Printf.sprintf "# HELP %s %s\n" base
                (prom_escape ~quote:false s.s_help));
         Buffer.add_string b
           (Printf.sprintf "# TYPE %s %s\n" base (kind_name s.s_kind))
       end;
       match s.s_value with
       | V_int n ->
         Buffer.add_string b
           (Printf.sprintf "%s%s %d\n" base (prom_labels s.s_labels) n)
       | V_float f ->
         Buffer.add_string b
           (Printf.sprintf "%s%s %s\n" base (prom_labels s.s_labels) (json_num f))
       | V_histogram (buckets, sum, count) ->
         List.iter
           (fun (le, c) ->
              Buffer.add_string b
                (Printf.sprintf "%s_bucket%s %d\n" base
                   (prom_labels (s.s_labels @ [ ("le", json_num le) ]))
                   c))
           buckets;
         Buffer.add_string b
           (Printf.sprintf "%s_bucket%s %d\n" base
              (prom_labels (s.s_labels @ [ ("le", "+Inf") ]))
              count);
         Buffer.add_string b
           (Printf.sprintf "%s_sum%s %s\n" base (prom_labels s.s_labels) (json_num sum));
         Buffer.add_string b
           (Printf.sprintf "%s_count%s %d\n" base (prom_labels s.s_labels) count))
    (samples ());
  Buffer.contents b

let write_file ?(format = `Json) path =
  let oc = open_out path in
  output_string oc (match format with `Json -> to_json () | `Prometheus -> to_prometheus ());
  output_char oc '\n';
  close_out oc

(* One bench record: the shape of every checked-in BENCH_*.json.  The
   metrics object is perfbench's {name: {value, unit}}; everything that is
   not a number goes into info as a string. *)
let write_record path ~record ~command ~info metrics =
  let host =
    Printf.sprintf "%d CPUs (%s), OCaml %s" (Domain.recommended_domain_count ())
      Sys.os_type Sys.ocaml_version
  in
  let q s = "\"" ^ Json_min.escape s ^ "\"" in
  let obj entries = "{\n" ^ String.concat ",\n" entries ^ "\n }" in
  let metric (name, v, unit) =
    if not (Float.is_finite v) then
      invalid_arg (Printf.sprintf "Metrics.write_record: %s is %g" name v);
    Printf.sprintf "  %s: {\"value\": %s, \"unit\": %s}" (q name) (json_num v) (q unit)
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n \"record\": %s,\n \"host\": %s,\n \"command\": %s,\n \"info\": %s,\n \"metrics\": %s\n}\n"
    (q record) (q host) (q command)
    (obj (List.map (fun (k, v) -> Printf.sprintf "  %s: %s" (q k) (q v)) info))
    (obj (List.map metric metrics));
  close_out oc

let check_metrics (m : Json_min.t) =
  let open Json_min in
  match m with
  | Obj [] -> Error "empty metrics object"
  | Obj entries ->
    let bad =
      List.filter
        (fun (_, e) ->
           Option.bind (member "value" e) num = None
           || Option.bind (member "unit" e) str = None)
        entries
    in
    if bad = [] then Ok (Printf.sprintf "record, %d metrics" (List.length entries))
    else
      Error
        (Printf.sprintf "metric(s) without a numeric value and a string unit: %s"
           (String.concat ", " (List.map fst bad)))
  | Arr samples ->
    let bad =
      List.filter
        (fun s ->
           Option.bind (member "name" s) str = None
           ||
           (* scalar samples carry "value"; histograms expand to
              buckets + sum + count *)
           (member "value" s = None
            && (member "buckets" s = None || member "count" s = None)))
        samples
    in
    if bad = [] then Ok (Printf.sprintf "metrics, %d samples" (List.length samples))
    else Error (Printf.sprintf "%d sample(s) without name/value" (List.length bad))
  | _ -> Error "metrics is neither a record object nor a sample array"

let reset () =
  Mutex.lock lock;
  Hashtbl.iter
    (fun _ i ->
       match i with
       | I_counter c -> Atomic.set c.c_v 0
       | I_gauge g -> Atomic.set g.g_v 0.0
       | I_histogram h ->
         Array.iter (fun a -> Atomic.set a 0) h.h_counts;
         Atomic.set h.h_sum 0.0;
         Atomic.set h.h_count 0)
    table;
  sources := [];
  Mutex.unlock lock

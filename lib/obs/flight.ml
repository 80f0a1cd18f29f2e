(* Flight recorder: a bounded per-domain ring of completed request
   timelines, dumped to disk when a request ends badly (deadline,
   cancelled, overloaded) or breaches the latency threshold.

   Records are kept in the ring already encoded — a compact binary layout
   (LEB128 varints, length-prefixed strings), not JSON — so steady-state
   recording costs one small encode and an array store.  Dump files are
   written temp+rename (like disk_cache) so readers never see a torn
   file, and dumps are rate-limited: one trigger per suppression window
   wins, the rest just count. *)

type phase = {
  ph_name : string;
  ph_domain : int;
  ph_start_ns : int;
  ph_dur_ns : int;
}

type record = {
  fr_rid : int;
  fr_sid : int;
  fr_label : string;                  (* "s<sid>.r<rid>" — the trace_id *)
  fr_op : string;                     (* eval | compile | ... *)
  fr_outcome : string;                (* ok | deadline | cancelled | ... *)
  fr_start_ns : int;                  (* Clock.now_ns at frame arrival *)
  fr_total_ns : int;
  fr_phases : phase list;             (* in chronological order *)
}

type dump = {
  d_reason : string;
  d_trigger : record option;
  d_records : record list;
}

(* ---- binary codec ---- *)

let put_varint b n =
  let n = ref (max 0 n) in
  let continue = ref true in
  while !continue do
    let byte = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char b (Char.chr byte);
      continue := false
    end
    else Buffer.add_char b (Char.chr (byte lor 0x80))
  done

let put_str b s =
  put_varint b (String.length s);
  Buffer.add_string b s

exception Corrupt of string

let get_varint s pos =
  let v = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if !pos >= String.length s then raise (Corrupt "truncated varint");
    let byte = Char.code s.[!pos] in
    incr pos;
    v := !v lor ((byte land 0x7f) lsl !shift);
    shift := !shift + 7;
    if !shift > 62 then raise (Corrupt "varint overflow");
    continue := byte land 0x80 <> 0
  done;
  !v

let get_str s pos =
  let n = get_varint s pos in
  if !pos + n > String.length s then raise (Corrupt "truncated string");
  let r = String.sub s !pos n in
  pos := !pos + n;
  r

let encode_record r =
  let b = Buffer.create 128 in
  put_varint b r.fr_rid;
  put_varint b r.fr_sid;
  put_str b r.fr_label;
  put_str b r.fr_op;
  put_str b r.fr_outcome;
  put_varint b r.fr_start_ns;
  put_varint b r.fr_total_ns;
  put_varint b (List.length r.fr_phases);
  List.iter
    (fun p ->
       put_str b p.ph_name;
       put_varint b p.ph_domain;
       put_varint b p.ph_start_ns;
       put_varint b p.ph_dur_ns)
    r.fr_phases;
  Buffer.contents b

let decode_record s pos =
  let fr_rid = get_varint s pos in
  let fr_sid = get_varint s pos in
  let fr_label = get_str s pos in
  let fr_op = get_str s pos in
  let fr_outcome = get_str s pos in
  let fr_start_ns = get_varint s pos in
  let fr_total_ns = get_varint s pos in
  let n = get_varint s pos in
  if n > 10_000 then raise (Corrupt "implausible phase count");
  let phases = ref [] in
  for _ = 1 to n do
    let ph_name = get_str s pos in
    let ph_domain = get_varint s pos in
    let ph_start_ns = get_varint s pos in
    let ph_dur_ns = get_varint s pos in
    phases := { ph_name; ph_domain; ph_start_ns; ph_dur_ns } :: !phases
  done;
  { fr_rid; fr_sid; fr_label; fr_op; fr_outcome; fr_start_ns; fr_total_ns;
    fr_phases = List.rev !phases }

(* ---- per-domain rings ---- *)

type ring = {
  r_dom : int;
  r_lock : Mutex.t;
  mutable r_slots : string array;     (* encoded records *)
  mutable r_len : int;
  mutable r_next : int;               (* overwrite cursor once full *)
}

let ring_cap = Atomic.make 256
let registry : ring list ref = ref []
let registry_lock = Mutex.create ()

let new_ring () =
  let r =
    { r_dom = (Domain.self () :> int); r_lock = Mutex.create ();
      r_slots = Array.make (Atomic.get ring_cap) ""; r_len = 0; r_next = 0 }
  in
  Mutex.lock registry_lock;
  registry := r :: !registry;
  Mutex.unlock registry_lock;
  r

let ring_key = Domain.DLS.new_key new_ring

let push_ring r enc =
  Mutex.lock r.r_lock;
  let cap = Array.length r.r_slots in
  if r.r_len < cap then begin
    r.r_slots.(r.r_len) <- enc;
    r.r_len <- r.r_len + 1
  end
  else begin
    r.r_slots.(r.r_next) <- enc;
    r.r_next <- (r.r_next + 1) mod cap
  end;
  Mutex.unlock r.r_lock

let ring_contents r =
  Mutex.lock r.r_lock;
  let out =
    (* oldest first: the overwrite cursor points at the oldest slot *)
    List.init r.r_len (fun i ->
        r.r_slots.((r.r_next + i) mod r.r_len))
  in
  Mutex.unlock r.r_lock;
  out

(* ---- configuration and trigger state ---- *)

let cfg_lock = Mutex.create ()
let cfg_dir = ref (None : string option)
let threshold_ns = Atomic.make max_int
let suppress_window_ns = Atomic.make 100_000_000
let last_dump_ns = Atomic.make min_int
let seq = Atomic.make 0

let n_records = Atomic.make 0
let n_dumps = Atomic.make 0
let n_suppressed = Atomic.make 0

(* created at module init: a shared Lazy.t raises when domains force it at
   once *)
let m_records = Metrics.counter ~help:"flight records appended" "flight_records"
let m_dumps = Metrics.counter ~help:"flight dumps written" "flight_dumps"
let m_suppressed =
  Metrics.counter ~help:"flight dumps suppressed by rate limit"
    "flight_dumps_suppressed"

let set_dir d =
  Mutex.lock cfg_lock;
  cfg_dir := d;
  Mutex.unlock cfg_lock;
  match d with
  | Some dir -> (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  | None -> ()

let get_dir () =
  Mutex.lock cfg_lock;
  let d = !cfg_dir in
  Mutex.unlock cfg_lock;
  d

let set_threshold_ms ms =
  Atomic.set threshold_ns
    (if ms <= 0.0 then max_int else int_of_float (ms *. 1e6))

let set_capacity n = Atomic.set ring_cap (max 4 n)

let set_suppress_window_ms ms =
  Atomic.set suppress_window_ns (int_of_float (Float.max 0.0 ms *. 1e6))

let stats () =
  (Atomic.get n_records, Atomic.get n_dumps, Atomic.get n_suppressed)

let reset () =
  Mutex.lock registry_lock;
  let rings = !registry in
  Mutex.unlock registry_lock;
  List.iter
    (fun r ->
       Mutex.lock r.r_lock;
       r.r_len <- 0;
       r.r_next <- 0;
       Mutex.unlock r.r_lock)
    rings;
  Atomic.set n_records 0;
  Atomic.set n_dumps 0;
  Atomic.set n_suppressed 0;
  Atomic.set last_dump_ns min_int

let snapshot () =
  Mutex.lock registry_lock;
  let rings = !registry in
  Mutex.unlock registry_lock;
  let encs = List.concat_map ring_contents rings in
  let recs = List.map (fun e -> decode_record e (ref 0)) encs in
  List.sort (fun a b -> compare a.fr_start_ns b.fr_start_ns) recs

(* ---- dump files ---- *)

let magic = "WFLT1\n"

let encode_dump ~reason ~trigger encs =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  put_str b reason;
  (match trigger with
   | None -> put_varint b 0
   | Some enc ->
     put_varint b 1;
     Buffer.add_string b enc);
  put_varint b (List.length encs);
  List.iter (Buffer.add_string b) encs;
  Buffer.contents b

let dump ~reason ?trigger () =
  let dir = get_dir () in
  Mutex.lock registry_lock;
  let rings = !registry in
  Mutex.unlock registry_lock;
  let encs = List.concat_map ring_contents rings in
  let count = List.length encs in
  match dir with
  | None -> (None, count)
  | Some dir ->
    let trigger = Option.map encode_record trigger in
    let payload = encode_dump ~reason ~trigger encs in
    let name =
      Printf.sprintf "flight-%d-%d.wfr" (Unix.getpid ())
        (Atomic.fetch_and_add seq 1)
    in
    let final = Filename.concat dir name in
    let tmp = final ^ ".tmp" in
    let oc = open_out_bin tmp in
    output_string oc payload;
    close_out oc;
    Sys.rename tmp final;
    Atomic.incr n_dumps;
    Metrics.incr m_dumps;
    (Some final, count)

let bad_outcome = function
  | "deadline" | "cancelled" | "overloaded" -> true
  | _ -> false

let record r =
  let enc = encode_record r in
  push_ring (Domain.DLS.get ring_key) enc;
  Atomic.incr n_records;
  Metrics.incr m_records;
  let triggered =
    bad_outcome r.fr_outcome || r.fr_total_ns >= Atomic.get threshold_ns
  in
  if not (triggered && get_dir () <> None) then None
  else begin
    let now = Clock.now_ns () in
    let last = Atomic.get last_dump_ns in
    (* min_int means "never dumped"; subtracting it would overflow *)
    if (last <> min_int && now - last < Atomic.get suppress_window_ns)
       || not (Atomic.compare_and_set last_dump_ns last now)
    then begin
      Atomic.incr n_suppressed;
      Metrics.incr m_suppressed;
      None
    end
    else begin
      let reason = if bad_outcome r.fr_outcome then r.fr_outcome else "slow" in
      fst (dump ~reason ~trigger:r ())
    end
  end

(* ---- reading and rendering ---- *)

let read_file path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  with
  | exception Sys_error e -> Error e
  | s ->
    if String.length s < String.length magic
       || String.sub s 0 (String.length magic) <> magic
    then Error "not a flight dump (bad magic)"
    else begin
      let pos = ref (String.length magic) in
      match
        let d_reason = get_str s pos in
        let d_trigger =
          match get_varint s pos with
          | 0 -> None
          | _ -> Some (decode_record s pos)
        in
        let n = get_varint s pos in
        if n > 1_000_000 then raise (Corrupt "implausible record count");
        let recs = List.init n (fun _ -> decode_record s pos) in
        { d_reason; d_trigger; d_records = recs }
      with
      | d -> Ok d
      | exception Corrupt e -> Error e
    end

let ms ns = float_of_int ns /. 1e6

let describe_record ?(origin = 0) b r =
  Printf.bprintf b "%-10s %-8s %-10s total=%8.2fms  t+%.2fms\n"
    r.fr_label r.fr_op r.fr_outcome (ms r.fr_total_ns)
    (ms (r.fr_start_ns - origin));
  List.iter
    (fun p ->
       Printf.bprintf b "    %-16s dom%-3d +%8.2fms  %8.3fms\n"
         p.ph_name p.ph_domain
         (ms (p.ph_start_ns - r.fr_start_ns))
         (ms p.ph_dur_ns))
    r.fr_phases

let describe d =
  let b = Buffer.create 1024 in
  Printf.bprintf b "reason: %s\n" d.d_reason;
  let origin =
    let starts =
      (match d.d_trigger with Some t -> [ t.fr_start_ns ] | None -> [])
      @ List.map (fun r -> r.fr_start_ns) d.d_records
    in
    match starts with [] -> 0 | s -> List.fold_left min max_int s
  in
  (match d.d_trigger with
   | None -> ()
   | Some t ->
     Buffer.add_string b "trigger:\n  ";
     describe_record ~origin b t);
  Printf.bprintf b "ring: %d record%s\n" (List.length d.d_records)
    (if List.length d.d_records = 1 then "" else "s");
  List.iter
    (fun r ->
       Buffer.add_string b "  ";
       describe_record ~origin b r)
    d.d_records;
  Buffer.contents b

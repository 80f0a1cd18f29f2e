(* Timing statistics, the benchmark's own span recorder, and the result
   line. *)

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* The CPU time of this process (getrusage: all threads, user and system).
   Unlike wall-clock time, it leaves out steal: on a paravirtualised guest
   the kernel subtracts the time the hypervisor ran another guest on this
   CPU.  Ops that neither block nor wait on another thread are timed with
   it. *)
let cpu_time f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

let sorted l = List.sort compare l

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list (sorted l) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let sum l = List.fold_left ( +. ) 0.0 l

let geomean l = exp (mean (List.map log l))

(* The tail: the highest percentile with at least [beyond] samples above
   it, i.e. the (beyond+1)-th largest sample.  Returns (value, percentile,
   sample count). *)
let tail ?(beyond = 10) l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n <= beyond then (a.(n - 1), 100.0, n)
  else (a.(n - 1 - beyond), 100.0 *. float_of_int (n - beyond) /. float_of_int n, n)

(* Peak resident set of a process, from /proc (Linux). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> failwith ("no VmHWM in " ^ path)
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

(* An in-memory span recorder for the traced run: one record per call into
   a layer, with its parent, kept until the run ends and written out as
   Chrome trace JSON.  Spans are recorded by the benchmark around its calls
   into the program; the program's own tracer stays off. *)
module Spans = struct
  type span = {
    id : int;
    parent : int;          (* 0 = root *)
    name : string;
    tid : int;
    t0 : float;
    mutable t1 : float;
  }

  let on = ref false
  let lock = Mutex.create ()
  let spans : span list ref = ref []
  let next_id = ref 0
  let stacks : (int, int list) Hashtbl.t = Hashtbl.create 4

  let with_lock f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

  let record name f =
    if not !on then f ()
    else begin
      let tid = Thread.id (Thread.self ()) in
      let s =
        with_lock (fun () ->
            incr next_id;
            let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
            let parent = match stack with p :: _ -> p | [] -> 0 in
            let s = { id = !next_id; parent; name; tid; t0 = now (); t1 = nan } in
            Hashtbl.replace stacks tid (s.id :: stack);
            spans := s :: !spans;
            s)
      in
      let finish () =
        let t1 = now () in
        with_lock (fun () ->
            s.t1 <- t1;
            match Hashtbl.find_opt stacks tid with
            | Some (_ :: rest) -> Hashtbl.replace stacks tid rest
            | _ -> ())
      in
      Fun.protect ~finally:finish f
    end

  let all () = with_lock (fun () -> List.rev !spans)

  let durations name =
    List.filter_map (fun s -> if s.name = name then Some (s.t1 -. s.t0) else None) (all ())

  let write path =
    let l = all () in
    let base = match l with s :: _ -> s.t0 | [] -> 0.0 in
    let oc = open_out path in
    output_string oc "{\"traceEvents\":[";
    List.iteri
      (fun i s ->
         if i > 0 then output_char oc ',';
         Printf.fprintf oc
           "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\
            \"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
           s.name s.tid ((s.t0 -. base) *. 1e6) ((s.t1 -. s.t0) *. 1e6) s.id s.parent)
      l;
    output_string oc "]}\n";
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* Result line                                                         *)

type metric = { mname : string; value : float; unit_ : string }

let m mname unit_ value = { mname; value; unit_ }

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun x ->
         Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.mname
           (json_float x.value) x.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " ms)

let on = Atomic.make false
let enabled () = Atomic.get on
let toggle_hook = ref ignore
let on_toggle f = toggle_hook := f
let set_enabled b = if Atomic.exchange on b <> b then !toggle_hook b

type cell = {
  name : string;
  calls : int Atomic.t;
  self_ns : int Atomic.t;
  total_ns : int Atomic.t;
}

let lock = Mutex.create ()
let cells : (string, cell) Hashtbl.t = Hashtbl.create 32

let cell_of name =
  Mutex.lock lock;
  let c =
    match Hashtbl.find_opt cells name with
    | Some c -> c
    | None ->
      let c = { name; calls = Atomic.make 0; self_ns = Atomic.make 0;
                total_ns = Atomic.make 0 } in
      Hashtbl.replace cells name c;
      c
  in
  Mutex.unlock lock;
  c

(* per-domain shadow stack: each live profiled activation accumulates the
   total time of its profiled callees, so self = total - children *)
type pframe = { mutable child_ns : int }

let stack_key : pframe list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let wrap_fn name f =
  let c = cell_of name in
  fun x ->
    if not (Atomic.get on) then f x
    else begin
      let stack = Domain.DLS.get stack_key in
      let fr = { child_ns = 0 } in
      stack := fr :: !stack;
      let t0 = Clock.now_ns () in
      Fun.protect
        ~finally:(fun () ->
            let total = Clock.now_ns () - t0 in
            (stack := match !stack with _ :: tl -> tl | [] -> []);
            (match !stack with p :: _ -> p.child_ns <- p.child_ns + total | [] -> ());
            Atomic.incr c.calls;
            ignore (Atomic.fetch_and_add c.total_ns total);
            ignore (Atomic.fetch_and_add c.self_ns (max 0 (total - fr.child_ns))))
        (fun () -> f x)
    end

(* event counters *)

let abort_poll_count = Atomic.make 0
let kernel_escape_count = Atomic.make 0
let cow_copy_count = Atomic.make 0

let[@inline] note_abort_poll () =
  if Atomic.get on then Atomic.incr abort_poll_count

let[@inline] note_kernel_escape () =
  if Atomic.get on then Atomic.incr kernel_escape_count

let[@inline] note_cow_copy () =
  if Atomic.get on then Atomic.incr cow_copy_count

let abort_polls () = Atomic.get abort_poll_count
let kernel_escapes () = Atomic.get kernel_escape_count
let cow_copies () = Atomic.get cow_copy_count

let reset () =
  Mutex.lock lock;
  Hashtbl.iter
    (fun _ c ->
       Atomic.set c.calls 0;
       Atomic.set c.self_ns 0;
       Atomic.set c.total_ns 0)
    cells;
  Mutex.unlock lock;
  Atomic.set abort_poll_count 0;
  Atomic.set kernel_escape_count 0;
  Atomic.set cow_copy_count 0

type fn_stat = {
  pf_name : string;
  pf_calls : int;
  pf_self : float;
  pf_total : float;
}

let stats () =
  Mutex.lock lock;
  let all = Hashtbl.fold (fun _ c acc -> c :: acc) cells [] in
  Mutex.unlock lock;
  all
  |> List.filter_map (fun c ->
      let calls = Atomic.get c.calls in
      if calls = 0 then None
      else
        Some
          { pf_name = c.name; pf_calls = calls;
            pf_self = float_of_int (Atomic.get c.self_ns) *. 1e-9;
            pf_total = float_of_int (Atomic.get c.total_ns) *. 1e-9 })
  |> List.sort (fun a b -> compare b.pf_self a.pf_self)

let report () =
  let b = Buffer.create 512 in
  let rows = stats () in
  let grand_self = List.fold_left (fun acc r -> acc +. r.pf_self) 0.0 rows in
  Buffer.add_string b
    (Printf.sprintf "%-28s %10s %12s %12s %7s\n" "function" "calls" "self-ms"
       "total-ms" "self%");
  List.iter
    (fun r ->
       Buffer.add_string b
         (Printf.sprintf "%-28s %10d %12.3f %12.3f %6.1f%%\n" r.pf_name r.pf_calls
            (r.pf_self *. 1e3) (r.pf_total *. 1e3)
            (if grand_self > 0.0 then 100.0 *. r.pf_self /. grand_self else 0.0)))
    rows;
  Buffer.add_string b
    (Printf.sprintf
       "events: %d abort polls, %d kernel escapes, %d copy-on-write copies\n"
       (abort_polls ()) (kernel_escapes ()) (cow_copies ()));
  Buffer.contents b

let to_json () =
  let rows = stats () in
  let b = Buffer.create 512 in
  Buffer.add_string b "{\"functions\":[";
  List.iteri
    (fun i r ->
       if i > 0 then Buffer.add_char b ',';
       Buffer.add_string b
         (Printf.sprintf
            "{\"name\":\"%s\",\"calls\":%d,\"self_seconds\":%.9f,\"total_seconds\":%.9f}"
            (Json_min.escape r.pf_name) r.pf_calls r.pf_self r.pf_total))
    rows;
  Buffer.add_string b
    (Printf.sprintf
       "],\"counters\":{\"abort_polls\":%d,\"kernel_escapes\":%d,\"cow_copies\":%d}}"
       (abort_polls ()) (kernel_escapes ()) (cow_copies ()));
  Buffer.contents b

let register_metrics () =
  Metrics.register_source "runtime_profile" (fun () ->
      let open Metrics in
      let c name help v =
        { s_name = name; s_labels = []; s_help = help; s_kind = Counter;
          s_value = V_int v }
      in
      [ c "runtime_abort_polls" "abort-flag polls executed by compiled code"
          (abort_polls ());
        c "runtime_kernel_escapes" "compiled->kernel evaluator escapes"
          (kernel_escapes ());
        c "runtime_cow_copies" "tensor copy-on-write copies" (cow_copies ()) ]
      @ List.concat_map
          (fun r ->
             [ { s_name = "runtime_function_calls";
                 s_labels = [ ("fn", r.pf_name) ]; s_help = "";
                 s_kind = Counter; s_value = V_int r.pf_calls };
               { s_name = "runtime_function_self_seconds";
                 s_labels = [ ("fn", r.pf_name) ]; s_help = "";
                 s_kind = Counter; s_value = V_float r.pf_self } ])
          (stats ()))

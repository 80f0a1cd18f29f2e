(* Content-addressed on-disk artifact store under the compile cache.

   The in-memory cache dies with the process; wolfd workers and repeated
   wolfc runs should never recompile what any previous process already
   built.  Entries are keyed by the same fingerprint as the in-memory
   layer (Compile_cache.key — source FullForm + every Options field +
   target), so --profile / opt-level variants cannot collide.

   Layout:
     <dir>/objects/<k2>/<key>.<kind>   one artifact per file
     <dir>/blobs/<name>               side blobs (dynlinkable .cmxs images)
     <dir>/lock                       fcntl lock for cross-process phases

   Crash safety is write-to-temp + rename: a reader either sees the old
   complete entry or a clean miss, never a torn artifact; a writer that
   dies before rename leaves only a tmp.* file that the next eviction or
   clear sweeps.  Concurrent processes sharing one directory coordinate
   destructive phases (eviction, clear, verify --fix) through an fcntl
   region lock on <dir>/lock; fcntl locks are per-process, so an
   in-process mutex backs it up.

   Entry format: an 8-byte magic, a marshaled header carrying the format
   version, a digest of the writing executable, the kind and the payload
   digest/length, then the payload bytes.  The payload itself is
   Marshal-encoded by the caller, which is not type-safe across differing
   binaries — hence the executable digest: an entry written by another
   build reads back as a clean miss, never as a segfault. *)

type stats = {
  lookups : int;
  hits : int;
  misses : int;
  writes : int;
  evictions : int;
  errors : int;      (** corrupt/unreadable entries encountered *)
  entries : int;     (** on-disk artifact count (scanned at read time) *)
  bytes : int;       (** on-disk artifact + blob bytes *)
}

type t = {
  dir : string;
  budget_bytes : int;
  exe_digest : string;
  mu : Mutex.t;                  (* backs up the per-process fcntl lock *)
  c_lookups : int Atomic.t;
  c_hits : int Atomic.t;
  c_misses : int Atomic.t;
  c_writes : int Atomic.t;
  c_evictions : int Atomic.t;
  c_errors : int Atomic.t;
}

let magic = "WOLFDC1\n"
let format_version = 1

type header = {
  h_version : int;
  h_exe : string;
  h_kind : string;
  h_digest : string;
  h_len : int;
}

(* test fault point: called after the temp file is complete, immediately
   before the rename that publishes it — raising here simulates a writer
   killed mid-publish (satellite: crash-safety coverage) *)
let fault_before_rename : (unit -> unit) ref = ref (fun () -> ())

let exe_digest_memo = Mutex.create ()
let exe_digest_v = ref None

let exe_digest () =
  Mutex.lock exe_digest_memo;
  let d =
    match !exe_digest_v with
    | Some d -> d
    | None ->
      let d =
        try Digest.to_hex (Digest.file Sys.executable_name)
        with _ -> "unknown-executable"
      in
      exe_digest_v := Some d;
      d
  in
  Mutex.unlock exe_digest_memo;
  d

let mkdir_p path =
  let rec go p =
    if p <> "/" && p <> "." && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      (try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    end
  in
  go path

let objects_dir t = Filename.concat t.dir "objects"
let blobs_dir t = Filename.concat t.dir "blobs"
let lock_path t = Filename.concat t.dir "lock"

let default_dir () =
  match Sys.getenv_opt "WOLFC_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ ->
    let base =
      match Sys.getenv_opt "XDG_CACHE_HOME" with
      | Some d when d <> "" -> d
      | _ ->
        (match Sys.getenv_opt "HOME" with
         | Some h when h <> "" -> Filename.concat h ".cache"
         | _ -> Filename.get_temp_dir_name ())
    in
    Filename.concat base "wolfc"

let open_dir ?(budget_bytes = 256 * 1024 * 1024) dir =
  let t =
    { dir; budget_bytes = max 1 budget_bytes; exe_digest = exe_digest ();
      mu = Mutex.create ();
      c_lookups = Atomic.make 0; c_hits = Atomic.make 0;
      c_misses = Atomic.make 0; c_writes = Atomic.make 0;
      c_evictions = Atomic.make 0; c_errors = Atomic.make 0 }
  in
  mkdir_p (objects_dir t);
  mkdir_p (blobs_dir t);
  (* create the lock file eagerly so with_flock never races mkdir *)
  (try Unix.close (Unix.openfile (lock_path t) [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644)
   with _ -> ());
  t

let dir t = t.dir

(* fcntl whole-file lock around destructive phases; fcntl locks do not
   exclude threads of the same process, so pair with the mutex *)
let with_flock t f =
  Mutex.lock t.mu;
  let fd =
    try Some (Unix.openfile (lock_path t) [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644)
    with _ -> None
  in
  let unlock () =
    (match fd with
     | Some fd ->
       (try Unix.lockf fd Unix.F_ULOCK 0 with _ -> ());
       (try Unix.close fd with _ -> ())
     | None -> ());
    Mutex.unlock t.mu
  in
  (match fd with
   | Some fd -> (try Unix.lockf fd Unix.F_LOCK 0 with _ -> ())
   | None -> ());
  Fun.protect ~finally:unlock f

let key_ok key =
  key <> ""
  && String.for_all
       (fun c ->
         (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z') || c = '-' || c = '_')
       key

let entry_path t ~key ~kind =
  let shard = if String.length key >= 2 then String.sub key 0 2 else "xx" in
  Filename.concat (objects_dir t) (Filename.concat shard (key ^ "." ^ kind))

let tmp_serial = Atomic.make 0

let is_tmp name = String.starts_with ~prefix:"tmp." name

(* every artifact and blob under the cache, as (path, size, mtime) *)
let scan_files t =
  let acc = ref [] in
  let dir_files d =
    match Sys.readdir d with exception _ -> [||] | a -> a
  in
  let note path =
    match Unix.stat path with
    | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
      acc := (path, st_size, st_mtime) :: !acc
    | _ | (exception _) -> ()
  in
  Array.iter
    (fun shard ->
      let sd = Filename.concat (objects_dir t) shard in
      if (try Sys.is_directory sd with _ -> false) then
        Array.iter (fun f -> note (Filename.concat sd f)) (dir_files sd))
    (dir_files (objects_dir t));
  Array.iter (fun f -> note (Filename.concat (blobs_dir t) f))
    (dir_files (blobs_dir t));
  !acc

let occupancy t =
  let files = List.filter (fun (p, _, _) -> not (is_tmp (Filename.basename p)))
      (scan_files t) in
  (List.length files, List.fold_left (fun a (_, s, _) -> a + s) 0 files)

let stats t =
  let entries, bytes = occupancy t in
  { lookups = Atomic.get t.c_lookups; hits = Atomic.get t.c_hits;
    misses = Atomic.get t.c_misses; writes = Atomic.get t.c_writes;
    evictions = Atomic.get t.c_evictions; errors = Atomic.get t.c_errors;
    entries; bytes }

let read_entry t ~kind path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let m = really_input_string ic (String.length magic) in
  if m <> magic then Error `Corrupt
  else begin
    match (input_value ic : header) with
    | exception _ -> Error `Corrupt
    | h ->
      if h.h_version <> format_version then Error `Stale
      else if h.h_exe <> t.exe_digest then Error `Stale
      else if h.h_kind <> kind then Error `Corrupt
      else if h.h_len < 0 || h.h_len > 1 lsl 30 then Error `Corrupt
      else begin
        match really_input_string ic h.h_len with
        | exception _ -> Error `Corrupt
        | payload ->
          if Digest.to_hex (Digest.string payload) <> h.h_digest then Error `Corrupt
          else Ok payload
      end
  end

let load t ~key ~kind =
  Atomic.incr t.c_lookups;
  let miss () = Atomic.incr t.c_misses; None in
  if not (key_ok key) then miss ()
  else begin
    let path = entry_path t ~key ~kind in
    if not (Sys.file_exists path) then miss ()
    else begin
      match read_entry t ~kind path with
      | Ok payload ->
        Atomic.incr t.c_hits;
        (* refresh mtime so eviction is approximately LRU *)
        (try Unix.utimes path 0.0 0.0 with _ -> ());
        Some payload
      | Error `Stale ->
        (* written by a different binary or format: valid for someone
           else, a clean miss for us — leave it to eviction *)
        miss ()
      | Error `Corrupt ->
        Atomic.incr t.c_errors;
        (try Sys.remove path with _ -> ());
        miss ()
      | exception _ ->
        (* unreadable or truncated before the magic: as corrupt as a bad
           digest — delete on sight *)
        Atomic.incr t.c_errors;
        (try Sys.remove path with _ -> ());
        miss ()
    end
  end

let write_file_atomic ~dir ~dest (emit : out_channel -> unit) =
  mkdir_p dir;
  let tmp =
    Filename.concat dir
      (Printf.sprintf "tmp.%d.%d.%s" (Unix.getpid ())
         (Atomic.fetch_and_add tmp_serial 1)
         (Filename.basename dest))
  in
  let oc = open_out_bin tmp in
  (match emit oc with
   | () -> close_out oc
   | exception e -> close_out_noerr oc; (try Sys.remove tmp with _ -> ()); raise e);
  (* the crash window under test: dying here must leave dest untouched *)
  (match !fault_before_rename () with
   | () -> ()
   | exception e -> (try Sys.remove tmp with _ -> ()); raise e);
  Sys.rename tmp dest

let evict_locked t =
  let files = scan_files t in
  let now = Unix.gettimeofday () in
  (* sweep orphaned temp files from crashed writers (older than 60s so we
     never yank a live writer's in-progress file) *)
  let files =
    List.filter
      (fun (p, _, mt) ->
        if is_tmp (Filename.basename p) && now -. mt > 60.0 then begin
          (try Sys.remove p with _ -> ());
          false
        end
        else not (is_tmp (Filename.basename p)))
      files
  in
  let total = List.fold_left (fun a (_, s, _) -> a + s) 0 files in
  if total > t.budget_bytes then begin
    let by_age =
      List.sort (fun (_, _, m1) (_, _, m2) -> Float.compare m1 m2) files
    in
    let remaining = ref total in
    List.iter
      (fun (p, sz, _) ->
        if !remaining > t.budget_bytes then begin
          match Sys.remove p with
          | () ->
            remaining := !remaining - sz;
            Atomic.incr t.c_evictions
          | exception _ -> ()
        end)
      by_age
  end

let store t ~key ~kind payload =
  if key_ok key then begin
    try
      let dest = entry_path t ~key ~kind in
      let h =
        { h_version = format_version; h_exe = t.exe_digest; h_kind = kind;
          h_digest = Digest.to_hex (Digest.string payload);
          h_len = String.length payload }
      in
      write_file_atomic ~dir:(Filename.dirname dest) ~dest (fun oc ->
          output_string oc magic;
          output_value oc h;
          output_string oc payload);
      Atomic.incr t.c_writes;
      with_flock t (fun () -> evict_locked t)
    with _ -> Atomic.incr t.c_errors
  end

(* side blobs: dynlinkable images that must exist as real files (Dynlink
   wants a path, not bytes), revalidated by content hash on every reuse *)
let blob_path t ~name = Filename.concat (blobs_dir t) name

let ensure_blob t ~name ~digest data =
  let path = blob_path t ~name in
  let current () =
    try Sys.file_exists path && Digest.to_hex (Digest.file path) = digest
    with _ -> false
  in
  if current () then Some path
  else begin
    try
      write_file_atomic ~dir:(blobs_dir t) ~dest:path (fun oc ->
          output_string oc data);
      if current () then Some path
      else begin
        Atomic.incr t.c_errors;
        None
      end
    with _ ->
      Atomic.incr t.c_errors;
      None
  end

let clear t =
  with_flock t @@ fun () ->
  let files = scan_files t in
  List.iter (fun (p, _, _) -> try Sys.remove p with _ -> ()) files;
  List.length files

let verify ?(fix = false) t =
  with_flock t @@ fun () ->
  let ok = ref 0 and bad = ref [] in
  List.iter
    (fun (path, _, _) ->
      let base = Filename.basename path in
      if is_tmp base then begin
        bad := (path, "orphaned temp file") :: !bad;
        if fix then (try Sys.remove path with _ -> ())
      end
      else if Filename.dirname path = blobs_dir t then
        (* blobs are validated against their recorded digest at reuse
           time; here just check readability *)
        (match Digest.file path with
         | _ -> incr ok
         | exception _ ->
           bad := (path, "unreadable blob") :: !bad;
           if fix then (try Sys.remove path with _ -> ()))
      else begin
        let kind =
          match String.rindex_opt base '.' with
          | Some i -> String.sub base (i + 1) (String.length base - i - 1)
          | None -> ""
        in
        match read_entry t ~kind path with
        | Ok _ | Error `Stale -> incr ok
        | Error `Corrupt ->
          bad := (path, "corrupt entry") :: !bad;
          if fix then (try Sys.remove path with _ -> ())
        | exception e ->
          bad := (path, Printexc.to_string e) :: !bad;
          if fix then (try Sys.remove path with _ -> ())
      end)
    (scan_files t);
  (!ok, List.rev !bad)

let register_metrics ?(prefix = "disk_cache") t =
  Wolf_obs.Metrics.register_source prefix (fun () ->
      let s = stats t in
      let c name v =
        { Wolf_obs.Metrics.s_name = prefix ^ "_" ^ name; s_labels = [];
          s_help = "on-disk compile cache " ^ name;
          s_kind = Wolf_obs.Metrics.Counter; s_value = Wolf_obs.Metrics.V_int v }
      in
      let g name v =
        { Wolf_obs.Metrics.s_name = prefix ^ "_" ^ name; s_labels = [];
          s_help = "on-disk compile cache " ^ name;
          s_kind = Wolf_obs.Metrics.Gauge;
          s_value = Wolf_obs.Metrics.V_int v }
      in
      [ c "lookups" s.lookups; c "hits" s.hits; c "misses" s.misses;
        c "writes" s.writes; c "evictions" s.evictions; c "errors" s.errors;
        g "entries" s.entries; g "bytes" s.bytes ])

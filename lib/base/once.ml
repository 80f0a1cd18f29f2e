type 'a t = {
  build : unit -> 'a;
  lock : Mutex.t;
  cell : 'a option Atomic.t;
}

let make build = { build; lock = Mutex.create (); cell = Atomic.make None }

let get t =
  match Atomic.get t.cell with
  | Some v -> v
  | None ->
    Mutex.protect t.lock (fun () ->
        match Atomic.get t.cell with
        | Some v -> v
        | None ->
          let v = t.build () in
          Atomic.set t.cell (Some v);
          v)

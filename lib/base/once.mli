(** A value built on first use, at most once per process.

    The build runs under a mutex, so domains racing on the first [get]
    wait for one build instead of raising [CamlinternalLazy.Undefined] the
    way a shared [Lazy.t] does on OCaml 5.  After the build, [get] is one
    atomic load.  A build that raises leaves the value unbuilt; the next
    [get] tries again. *)

type 'a t

val make : (unit -> 'a) -> 'a t
val get : 'a t -> 'a

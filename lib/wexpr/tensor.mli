(** Packed numeric arrays with reference counting and copy-on-write.

    Mirrors the Wolfram Engine's packed arrays: the interpreter uses
    reference counts to decide whether a mutation ([a[[3]] = -20]) may happen
    in place or must copy (objective F5); the compiler's memory-management
    pass emits explicit acquire/release on these counts (objective F7). *)

type data =
  | Ints of int array
  | Reals of float array

type t = private {
  dims : int array;          (** row-major; product equals data length *)
  data : data;
  mutable refcount : int;
}

val create_int : int array -> int array -> t
val create_real : int array -> float array -> t
(** @raise Invalid_argument if the dimensions do not match the data length. *)

val of_int_array : int array -> t
val of_real_array : float array -> t
val of_real_matrix : float array array -> t

val rank : t -> int
val dims : t -> int array
val flat_length : t -> int
val is_int : t -> bool

val acquire : t -> unit
val release : t -> unit
val refcount : t -> int

val copy : t -> t
(** Deep copy with refcount 1. *)

val ensure_unique : t -> t
(** Copy-on-write: returns [t] itself when [refcount t <= 1], otherwise
    releases one reference and returns a fresh copy. *)

val get_int : t -> int -> int
val get_real : t -> int -> float
(** Flat accessors; [get_real] on an integer tensor converts. *)

val set_int : t -> int -> int -> unit
val set_real : t -> int -> float -> unit
(** In-place flat mutation.  Callers are responsible for uniqueness. *)

val part_index : int -> int -> int
(** [part_index n i]: Wolfram [Part] semantics on an axis (or string, or
    argument list) of length [n]: 1-based, negative counts from the end.
    Returns the 0-based position.  Every [Part] read and store of the
    interpreter, the runtime primitives and the backends goes through it.
    @raise Wolf_base.Errors.Runtime_error on out-of-range. *)

val normalize_index : t -> int -> int
(** [part_index] on the first axis. *)

val flat_index2 : t -> int -> int -> int
(** [flat_index2 t i k]: the flat position of [t[[i, k]]] in a rank-2
    tensor, each index by [part_index]. *)

val slice : t -> int -> t
(** [slice t i] is the [i]-th (0-based) sub-tensor along the first axis;
    for rank-1 tensors use [get_int]/[get_real] instead.  The slice is a
    fresh tensor (packed arrays are rectangular so slicing copies). *)

val set_slice : t -> int -> t -> unit

val equal : t -> t -> bool
val map_real : (float -> float) -> t -> t
val to_real : t -> t

val dot : t -> t -> t
(** Vector·vector, matrix·vector and matrix·matrix products; the
    matrix-matrix case runs a blocked ikj dgemm.  This single kernel is the
    repo's stand-in for MKL: every execution path (interpreter, WVM,
    compiled code, hand-written baseline) calls it, reproducing the paper's
    Dot benchmark setup. *)

val total : t -> [ `Int of int | `Real of float ]
val pp : Format.formatter -> t -> unit

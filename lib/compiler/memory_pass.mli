(** Automatic memory management (paper §4.5, objective F7).

    Variables of memory-managed types (the "MemoryManaged" type class:
    packed arrays, expressions, strings) get [MemoryAcquire] where an
    aliasing definition opens a new live interval and [MemoryRelease] at the
    interval's end.  Both are no-ops for unmanaged scalars.  The reference
    counts drive the runtime's copy-on-write: two live names for one packed
    array force [SetPart] to copy, preserving mutability semantics (F5).

    A [Copy] of a fresh allocation in its own block, which is that
    allocation's only use, takes over its claim instead of opening a second
    one, provided the copy is only read, stored into in place, copied the
    same way or returned: a Module binding [a = ConstantArray[…]] then
    leaves the array at refcount 1. *)

val run : Wir.program -> unit

(** MiniC runtime prelude prepended to every workload: a bump
    allocator over the emulator-provided heap, a deterministic LCG,
    and [alloc_node], an allocator with irregular padding that models
    the scattered layouts real allocators produce (so pointer chasing
    is not secretly stride-predictable). *)

val with_prelude : string -> string

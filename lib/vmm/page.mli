(** Per-frame metadata, the simulator's analogue of Linux's [struct page].

    The scanner uses this to classify each key hit as residing in allocated
    or unallocated memory and (via the anonymous reverse map maintained by
    the kernel) to attribute it to owning processes. *)

type owner =
  | Free  (** on the buddy allocator's free lists *)
  | Anon  (** anonymous process memory (heap/stack); refcount = #mappers *)
  | Page_cache of { ino : int; index : int }
      (** caches page [index] of file [ino] *)
  | Kernel  (** kernel-internal allocation (fs metadata, buffers, ...) *)

type t = {
  mutable owner : owner;
  mutable refcount : int;
      (** number of page-table mappings for [Anon] frames (COW sharing);
          1 for other live frames; 0 when free *)
  mutable locked_ptes : int;
      (** number of live [Present] PTEs with the mlock bit that map this
          frame; kept by the kernel at fork, mlock, COW break and exit *)
  mutable locked : bool;
      (** covered by an [mlock]ed VMA: never swapped.  The kernel keeps it
          equal to [locked_ptes > 0]. *)
}

val make_free : unit -> t

val is_free : t -> bool

val pp_owner : Format.formatter -> owner -> unit

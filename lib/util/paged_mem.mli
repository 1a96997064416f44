(** Sparse word-addressed memory backed by 4 KiB pages.

    Addresses are non-negative, 8-byte-aligned byte addresses; each holds
    one [int64] word (0 when never written). Pages (512 words) materialise
    on first store and live in a small table behind a direct-mapped page
    cache, so page-local access streams neither hash nor allocate. *)

type t

val create : unit -> t

val load : t -> int -> int64
(** Word at a byte address; [0L] if never written. Raises
    [Invalid_argument] on negative or unaligned addresses. *)

val store : t -> int -> int64 -> unit
(** Write the word at a byte address, materialising its page. *)

(** {2 Unboxed page access}

    The compiled emulator's inner loop must read and write memory without
    boxing the [int64]. Pages are int64 bigarrays; [page_get]/[page_set]
    are the bigarray intrinsics (no bounds check — word indices come from
    {!word_index}, which masks into range), and the page handles returned
    by [page_for_load]/[page_for_store] are existing blocks, so a
    load/store compiled against this interface allocates nothing.
    Addresses must already be validated: non-negative and 8-byte aligned
    (an unchecked misaligned address silently aliases the containing
    word). *)

type page = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Concrete (not abstract) so the [page_get]/[page_set] primitives can
    see the element kind and compile to unboxed accesses at call sites. *)

external page_get : page -> int -> int64 = "%caml_ba_unsafe_ref_1"
external page_set : page -> int -> int64 -> unit = "%caml_ba_unsafe_set_1"

val page_for_load : t -> int -> page
(** Page holding the given byte address, for reading: a shared all-zero
    page when the address' page was never stored to. Never write through
    it. *)

val page_for_store : t -> int -> page
(** Page holding the given byte address, materialised if absent. *)

val word_index : int -> int
(** Index of a byte address' word within its 512-word page. *)

type snapshot
(** An immutable copy of a memory's materialised pages, one page copy
    each. *)

val snapshot : t -> snapshot
(** Capture the current contents. Later stores to [t] do not affect the
    snapshot. *)

val restore : t -> snapshot -> unit
(** Replace the contents of [t] with the snapshot's (pages materialised at
    capture time stay materialised, everything else reads 0). Stores after
    a restore do not affect the snapshot. *)

val of_snapshot : snapshot -> t
(** A fresh memory holding the snapshot's contents. *)

val fold_nonzero : ('a -> int -> int64 -> 'a) -> 'a -> t -> 'a
(** Fold over every word with a non-zero value, in no particular order. *)

val pages : t -> int
(** Number of materialised pages. *)

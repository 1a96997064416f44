(* Paged sparse memory: 4 KiB pages (512 x int64 words) in a small table,
   with a direct-mapped page cache in front. The emulator's access stream
   is strongly page-local (stencils, streams, hash tables) but often
   alternates between a handful of regions (pointer chases, two-array
   stencils), so the cache keeps [cache_slots] pages indexed by the low
   bits of the page number: the common load/store touches no hash and
   allocates nothing; a page is materialised on its first store.

   Pages are int64 bigarrays rather than int64 arrays so that the compiled
   emulator's closures can read and write words through the [page_get]/
   [page_set] intrinsics without boxing: an [int64 array] store would box
   the value at the call boundary (one minor allocation per store). *)

let page_bytes = 4096
let words_per_page = page_bytes / 8
let cache_slots = 256

type page = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

external page_get : page -> int -> int64 = "%caml_ba_unsafe_ref_1"
external page_set : page -> int -> int64 -> unit = "%caml_ba_unsafe_set_1"

let fresh_page () : page =
  let p = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout words_per_page in
  Bigarray.Array1.fill p 0L;
  p

(* Shared all-zero page standing in for absent pages on the load path (and
   as the negative entry in the cache): reads through it are 0, and
   [page_for_store] never returns it, so it is never written. *)
let zero_page : page = fresh_page ()

type t = {
  pages : (int, page) Hashtbl.t;
  cache_idx : int array;  (* page number cached per slot; -1 = empty *)
  cache_page : page array;
}

let create () =
  {
    pages = Hashtbl.create 64;
    cache_idx = Array.make cache_slots (-1);
    cache_page = Array.make cache_slots zero_page;
  }

let page_of_addr addr = addr lsr 12
let word_index addr = (addr lsr 3) land (words_per_page - 1)

let check_addr addr =
  if addr < 0 then invalid_arg "Paged_mem: negative address";
  if addr land 7 <> 0 then invalid_arg "Paged_mem: unaligned address"

let find t idx =
  let slot = idx land (cache_slots - 1) in
  if Array.unsafe_get t.cache_idx slot = idx then
    Array.unsafe_get t.cache_page slot
  else
    match Hashtbl.find_opt t.pages idx with
    | Some p ->
        Array.unsafe_set t.cache_idx slot idx;
        Array.unsafe_set t.cache_page slot p;
        p
    | None ->
        (* negative entries are cached too: loads of never-written pages
           (sparse pointer chases) would otherwise hash on every access;
           a later store to the page replaces the entry *)
        Array.unsafe_set t.cache_idx slot idx;
        Array.unsafe_set t.cache_page slot zero_page;
        zero_page

let materialise t idx =
  let p = fresh_page () in
  Hashtbl.add t.pages idx p;
  let slot = idx land (cache_slots - 1) in
  Array.unsafe_set t.cache_idx slot idx;
  Array.unsafe_set t.cache_page slot p;
  p

let page_for_load t addr = find t (page_of_addr addr)

let page_for_store t addr =
  let idx = page_of_addr addr in
  let p = find t idx in
  if p != zero_page then p else materialise t idx

let load t addr =
  check_addr addr;
  page_get (page_for_load t addr) (word_index addr)

let store t addr v =
  check_addr addr;
  page_set (page_for_store t addr) (word_index addr) v

(* Snapshots are page copies: each page is blitted into a fresh one both
   when the snapshot is taken and when it is restored, so neither later
   stores to the live memory nor stores after a restore can reach
   through. Pages are kept sorted by index so equal memories yield
   structurally equal snapshots. *)
type snapshot = (int * page) array

let copy_page p =
  let q = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout words_per_page in
  Bigarray.Array1.blit p q;
  q

let snapshot t : snapshot =
  let a =
    Array.of_list (Hashtbl.fold (fun idx p acc -> (idx, copy_page p) :: acc) t.pages [])
  in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) a;
  a

let restore t (s : snapshot) =
  Hashtbl.reset t.pages;
  Array.fill t.cache_idx 0 cache_slots (-1);
  Array.fill t.cache_page 0 cache_slots zero_page;
  Array.iter (fun (idx, p) -> Hashtbl.add t.pages idx (copy_page p)) s

let of_snapshot s =
  let t = create () in
  restore t s;
  t

let fold_nonzero f acc t =
  Hashtbl.fold
    (fun idx p acc ->
      let base = idx * page_bytes in
      let acc = ref acc in
      for w = 0 to words_per_page - 1 do
        let v = page_get p w in
        if not (Int64.equal v 0L) then acc := f !acc (base + (8 * w)) v
      done;
      !acc)
    t.pages acc

let pages t = Hashtbl.length t.pages

let history_bits = 64
let table_entries = 512

(* Jiménez & Lin's training threshold for this history length. *)
let theta = int_of_float ((1.93 *. float_of_int history_bits) +. 14.0)
let weight_clamp = 127

(* gshare geometry *)
let gshare_entries = 4096
let gshare_history_bits = 12

(* A perceptron row: the bias as a signed byte at offset 0, then from
   [weights_at] the weight of the branch [i] outcomes ago (i = 1..64) at
   byte [weights_at + i - 1], stored as weight + 128, so 1..255 for
   −127..127 and eight weights to a 64-bit word. *)
let row_bytes = 72
let weights_at = 8

type t = {
  kind : Config.predictor_kind;
  table : Bytes.t;
      (* [table_entries] rows of [row_bytes]: 36,864 bytes, which fit in
         L1 beside the rest of the cycle loop's hot state. Empty unless
         [kind] is [Perceptron]. *)
  history : Bytes.t;
      (* one 64-bit mask: bit [i - 1] set when the branch [i] outcomes
         ago was taken *)
  mutable taken_in_history : int;  (* the mask's popcount *)
  (* gshare state, empty unless [kind] is [Gshare] *)
  counters : int array;  (* 2-bit saturating counters *)
  mutable ghist : int;  (* global history register *)
  mutable lookups : int;
  mutable mispredicts : int;
}

let create (cfg : Config.t) =
  let kind = cfg.Config.predictor in
  let perceptron =
    match kind with
    | Config.Perceptron -> true
    | Config.Gshare | Config.Perfect_prediction -> false
  in
  let table =
    if perceptron then begin
      let b = Bytes.make (table_entries * row_bytes) '\000' in
      for r = 0 to table_entries - 1 do
        Bytes.fill b ((r * row_bytes) + weights_at) history_bits '\128'
      done;
      b
    end
    else Bytes.empty
  in
  {
    kind;
    table;
    history = Bytes.make (if perceptron then 8 else 0) '\000';
    taken_in_history = 0;
    counters =
      (match kind with
      | Config.Gshare -> Array.make gshare_entries 1 (* weakly not-taken *)
      | Config.Perceptron | Config.Perfect_prediction -> [||]);
    ghist = 0;
    lookups = 0;
    mispredicts = 0;
  }

let gshare_step ~stats t ~pc ~taken =
  let idx = ((pc lsr 2) lxor t.ghist) land (gshare_entries - 1) in
  let c = t.counters.(idx) in
  let predicted = c >= 2 in
  let correct = predicted = taken in
  if stats && not correct then t.mispredicts <- t.mispredicts + 1;
  t.counters.(idx) <- (if taken then Int.min 3 (c + 1) else Int.max 0 (c - 1));
  t.ghist <- ((t.ghist lsl 1) lor (if taken then 1 else 0)) land ((1 lsl gshare_history_bits) - 1);
  correct

(* Rows, the expansion table and the history are read in range by
   construction, so the 64-bit loads go unchecked; every int64 below is
   a local, so native code keeps it unboxed and a step allocates
   nothing. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Word [b] has 0xFF in each byte whose bit of [b] is set: byte [k] in
   memory order for bit [k], as the row's weights lie. *)
let expand =
  let e = Bytes.create (256 * 8) in
  for b = 0 to 255 do
    for k = 0 to 7 do
      Bytes.set e ((8 * b) + k) (if b land (1 lsl k) <> 0 then '\255' else '\000')
    done
  done;
  e

let ones = 0x0101_0101_0101_0101L
let low7 = 0x7F7F_7F7F_7F7F_7F7FL
let high = 0x8080_8080_8080_8080L
let lanes = 0x00FF_00FF_00FF_00FFL

(* 0x80 in each nonzero byte of [y], exactly: no carry crosses a byte *)
let[@inline] nonzero y =
  Int64.logand (Int64.logor (Int64.add (Int64.logand y low7) low7) y) high

(* The history slice of word [j] as a byte mask *)
let[@inline] taken_mask h j =
  get64 expand (8 * (Int64.to_int (Int64.shift_right_logical h (8 * j)) land 0xff))

(* Word [j]'s votes, its eight bytes summed in 16-bit lanes: a stored
   [s] when its branch was taken, [255 - s] when not. *)
let[@inline] votes w row h j =
  let x = Int64.logxor (get64 w (row + weights_at + (8 * j))) (Int64.lognot (taken_mask h j)) in
  Int64.add (Int64.logand x lanes) (Int64.logand (Int64.shift_right_logical x 8) lanes)

(* Word [j] trained: a lane whose history bit equals the outcome
   ([agree] flips the taken mask when not taken) goes up unless at 255,
   the others down unless at 1. Held lanes keep the ±127 clamp exact, so
   no carry or borrow crosses a lane. *)
let[@inline] train w row h agree j =
  let at = row + weights_at + (8 * j) in
  let x = get64 w at in
  let up = Int64.logxor (taken_mask h j) agree in
  let inc = Int64.logand up (nonzero (Int64.lognot x)) in
  let dec = Int64.logand (Int64.lognot up) (nonzero (Int64.logxor x ones)) in
  set64 w at
    (Int64.sub
       (Int64.add x (Int64.shift_right_logical inc 7))
       (Int64.shift_right_logical dec 7))

(* The bias is a signed byte: shifting its bits to the top of the int
   and back sign-extends it. *)
let sign_shift = Sys.int_size - 8
let bias w row = (Char.code (Bytes.unsafe_get w row) lsl sign_shift) asr sign_shift

(* The vote, bias + Σ h_i·w_i with h_i = ±1, is bias + Σ votes − T −
   64·127 for T taken bits: a taken lane votes s = w + 128, a not-taken
   one 255 − s = 127 − w. One multiply folds the four lanes (at most
   16,320 in all, so none overflows) into the top 16 bits. *)
let perceptron_step ~stats t ~pc ~taken =
  let w = t.table in
  let row = ((pc lsr 2) land (table_entries - 1)) * row_bytes in
  let h = get64 t.history 0 in
  let lanes_sum =
    Int64.add
      (Int64.add
         (Int64.add (votes w row h 0) (votes w row h 1))
         (Int64.add (votes w row h 2) (votes w row h 3)))
      (Int64.add
         (Int64.add (votes w row h 4) (votes w row h 5))
         (Int64.add (votes w row h 6) (votes w row h 7)))
  in
  let total =
    Int64.to_int (Int64.shift_right_logical (Int64.mul lanes_sum 0x0001_0001_0001_0001L) 48)
  in
  let b = bias w row in
  let sum = b + total - t.taken_in_history - (history_bits * weight_clamp) in
  let predicted = sum >= 0 in
  let correct = predicted = taken in
  if stats && not correct then t.mispredicts <- t.mispredicts + 1;
  (* train on mispredict or low confidence *)
  if (not correct) || abs sum <= theta then begin
    let b' = if taken then Int.min weight_clamp (b + 1) else Int.max (-weight_clamp) (b - 1) in
    Bytes.unsafe_set w row (Char.unsafe_chr (b' land 0xff));
    let agree = if taken then 0L else -1L in
    train w row h agree 0;
    train w row h agree 1;
    train w row h agree 2;
    train w row h agree 3;
    train w row h agree 4;
    train w row h agree 5;
    train w row h agree 6;
    train w row h agree 7
  end;
  (* shift history *)
  let bit = Bool.to_int taken in
  t.taken_in_history <-
    t.taken_in_history - Int64.to_int (Int64.shift_right_logical h 63) + bit;
  set64 t.history 0 (Int64.logor (Int64.shift_left h 1) (Int64.of_int bit));
  correct

let step ~stats t ~pc ~taken =
  if stats then t.lookups <- t.lookups + 1;
  match t.kind with
  | Config.Perfect_prediction -> true
  | Config.Gshare -> gshare_step ~stats t ~pc ~taken
  | Config.Perceptron -> perceptron_step ~stats t ~pc ~taken

let predict_and_train t ~pc ~taken = step ~stats:true t ~pc ~taken
let warm t ~pc ~taken = ignore (step ~stats:false t ~pc ~taken)

let weights t =
  if Bytes.length t.table = 0 then [||]
  else
    Array.init
      (table_entries * (history_bits + 1))
      (fun k ->
        let row = k / (history_bits + 1) * row_bytes and i = k mod (history_bits + 1) in
        if i = 0 then bias t.table row
        else Char.code (Bytes.get t.table (row + weights_at + i - 1)) - 128)

let lookups t = t.lookups
let mispredicts t = t.mispredicts

let accuracy t =
  if t.lookups = 0 then 1.0
  else 1.0 -. (float_of_int t.mispredicts /. float_of_int t.lookups)

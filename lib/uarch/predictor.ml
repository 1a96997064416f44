let history_bits = 64
let table_entries = 512

(* Jiménez & Lin's training threshold for this history length. *)
let theta = int_of_float ((1.93 *. float_of_int history_bits) +. 14.0)
let weight_clamp = 127

(* gshare geometry *)
let gshare_entries = 4096
let gshare_history_bits = 12

type t = {
  kind : Config.predictor_kind;
  weights : Bytes.t;
      (* signed bytes: [table_entries] rows of [history_bits + 1]; a
         row's slot 0 is the bias. The clamp keeps each in a byte, and
         the table (33 KB) in L1. Empty unless [kind] is [Perceptron]. *)
  history : int array;
      (* ±1 per outcome, newest at [head]; doubled, so entry [i] and
         [i + history_bits] are equal and the window [head, head +
         history_bits) never wraps *)
  mutable head : int;
  (* gshare state, empty unless [kind] is [Gshare] *)
  counters : int array;  (* 2-bit saturating counters *)
  mutable ghist : int;  (* global history register *)
  mutable lookups : int;
  mutable mispredicts : int;
}

let create (cfg : Config.t) =
  let kind = cfg.Config.predictor in
  {
    kind;
    weights =
      (match kind with
      | Config.Perceptron -> Bytes.make (table_entries * (history_bits + 1)) '\000'
      | Config.Gshare | Config.Perfect_prediction -> Bytes.empty);
    history = Array.make (2 * history_bits) (-1);
    head = 0;
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

let clamp v = Int.max (-weight_clamp) (Int.min weight_clamp v)

(* A weight is a signed byte: shifting the byte's bits to the top of the
   int and back sign-extends it. *)
let sign_shift = Sys.int_size - 8
let weight w i = (Char.code (Bytes.unsafe_get w i) lsl sign_shift) asr sign_shift
let set_weight w i v = Bytes.unsafe_set w i (Char.unsafe_chr (v land 0xff))

(* The row and the history window are in range by construction, so the
   loops read them unchecked. A history entry times a weight is the
   weight's signed vote; times the outcome it is the training step. *)
let perceptron_step ~stats t ~pc ~taken =
  let w = t.weights and h = t.history and head = t.head in
  let row = ((pc lsr 2) land (table_entries - 1)) * (history_bits + 1) in
  let sum = ref (weight w row) in
  for i = 1 to history_bits do
    sum := !sum + (Array.unsafe_get h (head + i - 1) * weight w (row + i))
  done;
  let predicted = !sum >= 0 in
  let correct = predicted = taken in
  if stats && not correct then t.mispredicts <- t.mispredicts + 1;
  let outcome = if taken then 1 else -1 in
  (* train on mispredict or low confidence *)
  if (not correct) || abs !sum <= theta then begin
    set_weight w row (clamp (weight w row + outcome));
    for i = 1 to history_bits do
      let k = row + i in
      set_weight w k (clamp (weight w k + (Array.unsafe_get h (head + i - 1) * outcome)))
    done
  end;
  (* shift history *)
  let head = if head = 0 then history_bits - 1 else head - 1 in
  t.head <- head;
  Array.unsafe_set h head outcome;
  Array.unsafe_set h (head + history_bits) outcome;
  correct

let step ~stats t ~pc ~taken =
  if stats then t.lookups <- t.lookups + 1;
  match t.kind with
  | Config.Perfect_prediction -> true
  | Config.Gshare -> gshare_step ~stats t ~pc ~taken
  | Config.Perceptron -> perceptron_step ~stats t ~pc ~taken

let predict_and_train t ~pc ~taken = step ~stats:true t ~pc ~taken
let warm t ~pc ~taken = ignore (step ~stats:false t ~pc ~taken)

let weights t = Array.init (Bytes.length t.weights) (weight t.weights)
let lookups t = t.lookups
let mispredicts t = t.mispredicts

let accuracy t =
  if t.lookups = 0 then 1.0
  else 1.0 -. (float_of_int t.mispredicts /. float_of_int t.lookups)

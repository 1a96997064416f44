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
  weights : int array array;  (* [entry].[history_bits + 1], slot 0 = bias *)
  history : bool array;
  mutable head : int;  (* circular history head *)
  (* gshare state *)
  counters : int array;  (* 2-bit saturating counters *)
  mutable ghist : int;  (* global history register *)
  mutable lookups : int;
  mutable mispredicts : int;
}

let create (cfg : Config.t) =
  {
    kind = cfg.Config.predictor;
    weights = Array.make_matrix table_entries (history_bits + 1) 0;
    history = Array.make history_bits false;
    head = 0;
    counters = Array.make gshare_entries 1 (* weakly not-taken *);
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

let step ~stats t ~pc ~taken =
  if stats then t.lookups <- t.lookups + 1;
  if t.kind = Config.Perfect_prediction then true
  else if t.kind = Config.Gshare then gshare_step ~stats t ~pc ~taken
  else begin
    let idx = (pc lsr 2) land (table_entries - 1) in
    let w = t.weights.(idx) in
    let sum = ref w.(0) in
    for i = 0 to history_bits - 1 do
      let h = t.history.((t.head + i) mod history_bits) in
      sum := !sum + (if h then w.(i + 1) else -w.(i + 1))
    done;
    let predicted = !sum >= 0 in
    let correct = predicted = taken in
    if stats && not correct then t.mispredicts <- t.mispredicts + 1;
    (* train on mispredict or low confidence *)
    if (not correct) || abs !sum <= theta then begin
      let clamp v = Int.max (-weight_clamp) (Int.min weight_clamp v) in
      w.(0) <- clamp (w.(0) + if taken then 1 else -1);
      for i = 0 to history_bits - 1 do
        let h = t.history.((t.head + i) mod history_bits) in
        let agree = h = taken in
        w.(i + 1) <- clamp (w.(i + 1) + if agree then 1 else -1)
      done
    end;
    (* shift history *)
    t.head <- (t.head + history_bits - 1) mod history_bits;
    t.history.(t.head) <- taken;
    correct
  end

let predict_and_train t ~pc ~taken = step ~stats:true t ~pc ~taken
let warm t ~pc ~taken = ignore (step ~stats:false t ~pc ~taken)

let lookups t = t.lookups
let mispredicts t = t.mispredicts

let accuracy t =
  if t.lookups = 0 then 1.0
  else 1.0 -. (float_of_int t.mispredicts /. float_of_int t.lookups)

(* Deterministic k-means for BBV clustering.

   Determinism is the whole point: the sampled driver's representative
   choice must be a pure function of (points, seed, k) so that reruns,
   different --jobs values and warm/cold sweep-cache passes all pick the
   same intervals. All randomness flows through one Prng stream seeded
   from [seed]; every tie (nearest centroid, farthest point) breaks to
   the lowest index; iteration order is array order throughout. *)

type clustering = {
  k : int;
  assign : int array;
  centroids : float array array;
}

let sq_dist a b =
  let d = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let x = a.(i) -. b.(i) in
    d := !d +. (x *. x)
  done;
  !d

(* The index of [p]'s nearest centroid among the first [k]. A
   centroid's sum stops once it reaches the best distance so far: its
   squared terms only grow it, so it cannot win, and a finished sum adds
   the same terms in the same order as [sq_dist]. *)
let nearest centroids k p =
  let best = ref 0 and bestd = ref (sq_dist p centroids.(0)) in
  let dim = Array.length p in
  for c = 1 to k - 1 do
    let q = centroids.(c) in
    let d = ref 0.0 and i = ref 0 in
    while !i < dim && !d < !bestd do
      let x = p.(!i) -. q.(!i) in
      d := !d +. (x *. x);
      incr i
    done;
    if !d < !bestd then begin
      best := c;
      bestd := !d
    end
  done;
  !best

(* kmeans++ seeding: first centre uniform, each further centre drawn with
   probability proportional to its squared distance from the chosen set.
   When every remaining point coincides with a centre (total mass 0) the
   lowest-index point not yet chosen is taken. *)
let seed_centroids rng ~k points =
  let n = Array.length points in
  let centroids = Array.make k points.(0) in
  let chosen = Array.make n false in
  let first = Prng.int rng n in
  centroids.(0) <- points.(first);
  chosen.(first) <- true;
  let d2 = Array.map (fun p -> sq_dist p centroids.(0)) points in
  for c = 1 to k - 1 do
    let total = Array.fold_left ( +. ) 0.0 d2 in
    let idx =
      if total > 0.0 then begin
        let r = Prng.float rng total in
        let acc = ref 0.0 and pick = ref (-1) in
        Array.iteri
          (fun i d ->
            if !pick < 0 then begin
              acc := !acc +. d;
              if !acc > r then pick := i
            end)
          d2;
        if !pick < 0 then n - 1 else !pick
      end
      else begin
        let pick = ref 0 in
        (try
           for i = 0 to n - 1 do
             if not chosen.(i) then begin
               pick := i;
               raise Exit
             end
           done
         with Exit -> ());
        !pick
      end
    in
    centroids.(c) <- points.(idx);
    chosen.(idx) <- true;
    Array.iteri
      (fun i p ->
        let d = sq_dist p centroids.(c) in
        if d < d2.(i) then d2.(i) <- d)
      points
  done;
  centroids

let max_iters = 100

let cluster ~seed ~k points =
  let n = Array.length points in
  if n = 0 then invalid_arg "Kmeans.cluster: no points";
  let k = max 1 (min k n) in
  let dim = Array.length points.(0) in
  Array.iter
    (fun p ->
      if Array.length p <> dim then
        invalid_arg "Kmeans.cluster: ragged point dimensions")
    points;
  let rng = Prng.create (Int64.of_int seed) in
  let centroids = seed_centroids rng ~k points in
  let assign = Array.make n (-1) in
  let iter = ref 0 and changed = ref true in
  while !changed && !iter < max_iters do
    changed := false;
    incr iter;
    (* assignment: strict [<] in [nearest] breaks ties to the lowest
       centroid index *)
    Array.iteri
      (fun i p ->
        let c = nearest centroids k p in
        if c <> assign.(i) then begin
          assign.(i) <- c;
          changed := true
        end)
      points;
    if !changed then begin
      let sums = Array.init k (fun _ -> Array.make dim 0.0) in
      let counts = Array.make k 0 in
      Array.iteri
        (fun i p ->
          let c = assign.(i) in
          counts.(c) <- counts.(c) + 1;
          let s = sums.(c) in
          for j = 0 to dim - 1 do
            s.(j) <- s.(j) +. p.(j)
          done)
        points;
      Array.iteri
        (fun c count ->
          if count > 0 then begin
            let s = sums.(c) in
            for j = 0 to dim - 1 do
              s.(j) <- s.(j) /. float_of_int count
            done;
            centroids.(c) <- s
          end
          else begin
            (* an emptied cluster reseeds to the point farthest from its
               centroid (lowest index on ties), keeping k clusters live *)
            let far = ref 0 and fard = ref neg_infinity in
            Array.iteri
              (fun i p ->
                let d = sq_dist p centroids.(assign.(i)) in
                if d > !fard then begin
                  far := i;
                  fard := d
                end)
              points;
            centroids.(c) <- Array.copy points.(!far);
            assign.(!far) <- c
          end)
        counts
    end
  done;
  { k; assign; centroids }

let representatives { k; assign; centroids } points =
  (* the member closest to its cluster's centroid, lowest index on ties;
     empty clusters (possible only if reseeding was cut off by the
     iteration cap) yield no representative *)
  let best = Array.make k (-1) in
  let bestd = Array.make k infinity in
  Array.iteri
    (fun i p ->
      let c = assign.(i) in
      let d = sq_dist p centroids.(c) in
      if d < bestd.(c) then begin
        bestd.(c) <- d;
        best.(c) <- i
      end)
    points;
  let reps = ref [] in
  for c = k - 1 downto 0 do
    if best.(c) >= 0 then reps := best.(c) :: !reps
  done;
  !reps

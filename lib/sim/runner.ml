module Spec = Braid_workload.Spec

exception Job_failed of { label : string; error : exn }

type job_error = {
  e_label : string;
  error : exn;
  backtrace : Printexc.raw_backtrace;
}

let run_one (label, f) =
  match f () with
  | v -> Ok v
  | exception error ->
      let bt = Printexc.get_raw_backtrace () in
      Error { e_label = label; error; backtrace = bt }

(* A failing job must reject only itself: the other slots keep running and
   the pool is left reusable (a long-lived daemon maps one request onto one
   batch, so a poisoned batch would poison every queued request behind it).
   [on_done] fires on the worker domain as each slot finishes; callers that
   stream progress must make the callback domain-safe. *)
let try_map_jobs ?(on_done = fun _ _ -> ()) ~jobs work =
  let n = Array.length work in
  let pool = max 1 (min jobs n) in
  let slots = Array.make n None in
  let finish i outcome =
    slots.(i) <- Some outcome;
    on_done i (fst work.(i))
  in
  (if pool <= 1 then
     Array.iteri (fun i job -> finish i (run_one job)) work
   else
     (* Work-stealing from a shared counter: each index is claimed by exactly
        one domain, so every slot has a single writer. *)
     let next = Atomic.make 0 in
     let worker () =
       let rec loop () =
         let i = Atomic.fetch_and_add next 1 in
         if i < n then begin
           finish i (run_one work.(i));
           loop ()
         end
       in
       loop ()
     in
     let domains = List.init pool (fun _ -> Domain.spawn worker) in
     List.iter Domain.join domains);
  Array.map (function Some o -> o | None -> assert false) slots

let map_jobs ?on_done ~jobs work =
  Array.map
    (function
      | Ok cell -> cell
      | Error { e_label; error; backtrace } ->
          Printexc.raise_with_backtrace
            (Job_failed { label = e_label; error })
            backtrace)
    (try_map_jobs ?on_done ~jobs work)

let experiment_work ~ctx ~scale exps =
  Array.of_list
    (List.concat_map
       (fun (e : Experiments.t) ->
         List.map
           (fun (pr : Spec.profile) ->
             ( e.Experiments.id ^ "/" ^ pr.Spec.name,
               fun () -> e.Experiments.bench_job ctx ~scale pr ))
           Spec.all)
       exps)

let run_experiments ?on_done ~ctx ~jobs ~scale exps =
  let work = experiment_work ~ctx ~scale exps in
  let out = map_jobs ?on_done ~jobs work in
  let nbench = List.length Spec.all in
  List.mapi
    (fun ei (e : Experiments.t) ->
      let cells = List.mapi (fun bi pr -> (pr, out.((ei * nbench) + bi))) Spec.all in
      e.Experiments.assemble ctx ~scale cells)
    exps

let experiment_job_count exps =
  List.length exps * List.length Spec.all

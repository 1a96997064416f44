type event = {
  uid : int;
  pc : int;
  block_id : int;
  offset : int;
  instr : Instr.t;
  deps : (int * bool) array;
  addr : int;
  is_load : bool;
  is_store : bool;
  is_cond_branch : bool;
  is_jump : bool;
  taken : bool;
  latency : int;
  writes_ext : bool;
  writes_int : bool;
  ext_src_reads : int;
  int_src_reads : int;
  braid_id : int;
  braid_start : bool;
  faulting : bool;
}

type stop_reason = Halted | Steps_exhausted

type dep_tables = {
  dep_count : int array;
  child_off : int array;
  child_uid : int array;
  child_via : Bytes.t;
  last_ext_reader : int array;
  conflict_store : int array;
}

type t = {
  events : event array;
  stop : stop_reason;
  program : Program.t;
  mutable warm_lines : int array option;  (* memo: distinct I-lines *)
  mutable tables : dep_tables option;  (* memo: {!dep_tables} *)
}

let length t = Array.length t.events

let warm_lines t =
  match t.warm_lines with
  | Some a -> a
  | None ->
      (* distinct 64-byte instruction lines in first-touch order (the
         order matters: cache warm-up replays them against LRU state) *)
      let seen = Hashtbl.create 256 in
      let acc = ref [] in
      Array.iter
        (fun e ->
          let line = e.pc land lnot 63 in
          if not (Hashtbl.mem seen line) then begin
            Hashtbl.add seen line ();
            acc := line :: !acc
          end)
        t.events;
      let a = Array.of_list (List.rev !acc) in
      t.warm_lines <- Some a;
      a

let dep_tables t =
  match t.tables with
  | Some tb -> tb
  | None ->
      let events = t.events in
      let n = Array.length events in
      let dep_count = Array.make n 0 in
      (* dependence graph in CSR form: the consumers (children) of
         producer [p] are [child_uid.(child_off.(p))
         .. child_uid.(child_off.(p+1) - 1)], tagged in [child_via] when
         the value flows through a braid-internal register *)
      let child_off = Array.make (n + 1) 0 in
      Array.iteri
        (fun i (e : event) ->
          dep_count.(i) <- Array.length e.deps;
          Array.iter (fun (p, _) -> child_off.(p + 1) <- child_off.(p + 1) + 1) e.deps)
        events;
      for i = 1 to n do
        child_off.(i) <- child_off.(i) + child_off.(i - 1)
      done;
      let total = child_off.(n) in
      let child_uid = Array.make total 0 in
      let child_via = Bytes.make total '\000' in
      let fill = Array.copy child_off in
      let last_ext_reader = Array.make n (-1) in
      (* youngest older same-address store per load, -1 = none *)
      let conflict_store = Array.make n (-1) in
      let last_store = Hashtbl.create 256 in
      Array.iteri
        (fun i (e : event) ->
          Array.iter
            (fun (p, via) ->
              let k = fill.(p) in
              child_uid.(k) <- i;
              if via then Bytes.set child_via k '\001'
              else if i > last_ext_reader.(p) then last_ext_reader.(p) <- i;
              fill.(p) <- k + 1)
            e.deps;
          if e.is_load then (
            match Hashtbl.find_opt last_store e.addr with
            | Some su -> conflict_store.(i) <- su
            | None -> ());
          if e.is_store then Hashtbl.replace last_store e.addr i)
        events;
      let tb =
        { dep_count; child_off; child_uid; child_via; last_ext_reader; conflict_store }
      in
      t.tables <- Some tb;
      tb

let branch_of e = e.is_cond_branch || e.is_jump

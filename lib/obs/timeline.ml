type row = {
  uid : int;
  track : int;  (* BEU index, -1 when unknown/front-end only *)
  fetch : int;  (* -1 when the event fell outside the tracer window *)
  dispatch : int;
  issue : int;
  complete : int;
  commit : int;
}

type mut_row = {
  mutable m_track : int;
  mutable m_fetch : int;
  mutable m_dispatch : int;
  mutable m_issue : int;
  mutable m_complete : int;
  mutable m_commit : int;
}

(* Per-instruction stage cycles recovered from the event stream, in uid
   order. *)
let rows_of_events evs =
  let tbl : (int, mut_row) Hashtbl.t = Hashtbl.create 256 in
  let row uid =
    match Hashtbl.find_opt tbl uid with
    | Some r -> r
    | None ->
        let r =
          {
            m_track = -1;
            m_fetch = -1;
            m_dispatch = -1;
            m_issue = -1;
            m_complete = -1;
            m_commit = -1;
          }
        in
        Hashtbl.add tbl uid r;
        r
  in
  List.iter
    (function
      | Tracer.Stage { cycle; uid; stage; track } ->
          let r = row uid in
          if track >= 0 then r.m_track <- track;
          (match stage with
          | Tracer.Fetch -> r.m_fetch <- cycle
          | Tracer.Dispatch -> r.m_dispatch <- cycle
          | Tracer.Issue -> r.m_issue <- cycle
          | Tracer.Complete -> r.m_complete <- cycle
          | Tracer.Commit -> r.m_commit <- cycle)
      | Tracer.Exec { uid; track; start; dur } ->
          let r = row uid in
          if track >= 0 then r.m_track <- track;
          r.m_issue <- start;
          r.m_complete <- start + dur
      | Tracer.Stall _ | Tracer.Span _ -> ())
    evs;
  Hashtbl.fold
    (fun uid (r : mut_row) acc ->
      {
        uid;
        track = r.m_track;
        fetch = r.m_fetch;
        dispatch = r.m_dispatch;
        issue = r.m_issue;
        complete = r.m_complete;
        commit = r.m_commit;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.uid b.uid)

let cell r c =
  (* later stages win when two boundaries land on the same cycle *)
  if c = r.commit then 'C'
  else if c = r.complete then 'X'
  else if c = r.issue then 'I'
  else if c = r.dispatch then 'D'
  else if c = r.fetch then 'F'
  else if r.issue >= 0 && r.complete >= 0 && c > r.issue && c < r.complete then '='
  else if r.dispatch >= 0 && r.issue >= 0 && c > r.dispatch && c < r.issue then '.'
  else if r.fetch >= 0 && r.dispatch >= 0 && c > r.fetch && c < r.dispatch then '.'
  else if r.complete >= 0 && r.commit >= 0 && c > r.complete && c < r.commit then '-'
  else ' '

let in_window r lo hi =
  let stages = [ r.fetch; r.dispatch; r.issue; r.complete; r.commit ] in
  List.exists (fun c -> c >= lo && c < hi) stages
  || (* an instruction spanning the whole window *)
  (let first = List.fold_left (fun a c -> if c >= 0 then min a c else a) max_int stages in
   let last = List.fold_left max (-1) stages in
   first <> max_int && first < lo && last >= hi)

let render ?(from_cycle = 0) ?(cycles = 64) ~label evs =
  let lo = from_cycle and hi = from_cycle + max 1 cycles in
  let rows = List.filter (fun r -> in_window r lo hi) (rows_of_events evs) in
  if rows = [] then ""
  else begin
    let b = Buffer.create 4096 in
    let left_width = 38 in
    let pad s w =
      if String.length s >= w then String.sub s 0 w
      else s ^ String.make (w - String.length s) ' '
    in
    (* ruler: a tick every 10 cycles *)
    let head = Printf.sprintf "%6s %-5s %s" "uid" "beu" (pad "instruction" left_width) in
    Buffer.add_string b head;
    Buffer.add_string b "|cycle ";
    Buffer.add_string b (string_of_int lo);
    Buffer.add_char b '\n';
    Buffer.add_string b (String.make (String.length head) ' ');
    Buffer.add_char b '|';
    for c = lo to hi - 1 do
      Buffer.add_char b (if c mod 10 = 0 then '+' else if c mod 5 = 0 then '\'' else ' ')
    done;
    Buffer.add_char b '\n';
    List.iter
      (fun r ->
        let beu = if r.track >= 0 then string_of_int r.track else "-" in
        Buffer.add_string b
          (Printf.sprintf "%6d %-5s %s|" r.uid beu (pad (label r.uid) left_width));
        for c = lo to hi - 1 do
          Buffer.add_char b (cell r c)
        done;
        Buffer.add_char b '\n')
      rows;
    Buffer.contents b
  end

type failure = {
  case : Gen.case;
  report : Oracle.report;
  shrunk : (Gen.case * Oracle.report) option;
}

type outcome = { tested : int; failures : failure list }

let check_case ?invariants ?cores case =
  let program, init_mem = Gen.build case in
  Oracle.check ?invariants ?cores program ~init_mem

let run ?(invariants = true) ?(shrink = false) ?cores ?(first_index = 0)
    ~count ~seed () =
  let failures = ref [] in
  for index = first_index to first_index + count - 1 do
    let case = Gen.generate ~seed ~index in
    let report = check_case ~invariants ?cores case in
    if not (Oracle.ok report) then begin
      let shrunk =
        if shrink then begin
          let fails c = not (Oracle.ok (check_case ~invariants ?cores c)) in
          let reduced = Shrink.shrink ~fails case in
          Some (reduced, check_case ~invariants ?cores reduced)
        end
        else None
      in
      failures := { case; report; shrunk } :: !failures
    end
  done;
  { tested = count; failures = List.rev !failures }

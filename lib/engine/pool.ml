let recommended_jobs () = Domain.recommended_domain_count ()

(* Run one task behind the "pool" fault site; a failure becomes its
   diagnostic. *)
let attempt f =
  match
    Faults.hit "pool";
    f ()
  with
  | v -> Ok v
  | exception e -> (
    let backtrace = Printexc.get_backtrace () in
    match e with
    | Faults.Injected site ->
      Error (Diag.v ~backtrace Diag.Fault_injected "injected fault at %s" site)
    | e ->
      Error
        (Diag.v ~backtrace Diag.Task_crashed "task raised %s"
           (Printexc.to_string e)))

(* Work-stealing is overkill for coarse scheduler tasks: a shared atomic
   next-task counter gives dynamic load balancing with no queues, and the
   results array (one writer per slot, read only after the joins) keeps the
   output in task order regardless of which domain ran what. *)
let run_results ?(jobs = 1) (tasks : (unit -> 'a) array) =
  if jobs < 1 then
    invalid_arg
      (Printf.sprintf "Engine.Pool.run_results: jobs must be >= 1 (got %d)"
         jobs);
  let n = Array.length tasks in
  let jobs = min jobs n in
  if jobs <= 1 then
    (* n = 0 lands here too: no domain is ever spawned for an empty array *)
    Array.map attempt tasks
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (attempt tasks.(i));
        worker ()
      end
    in
    (* Domain.spawn fails past the runtime's cap on live domains: stop
       there and run on the workers that did start, the counter hands
       them the rest *)
    let rec spawn k acc =
      if k = 0 then acc
      else
        match Domain.spawn worker with
        | d -> spawn (k - 1) (d :: acc)
        | exception Failure _ -> acc
    in
    let helpers = spawn (jobs - 1) [] in
    worker ();
    List.iter Domain.join helpers;
    Array.map (function Some r -> r | None -> assert false) results
  end

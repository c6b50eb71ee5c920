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

(* Kept helpers: allocating in a freshly spawned domain costs several times
   more than in a warm one, so the pool keeps the helper domains of its
   latest call, each asleep on its own condition until the next batch.
   They are the only domains the pool starts. Helper [j] serves only a
   batch that names it, so a call at [~jobs:k] wakes helpers 0 .. k-2 and
   no other. An idle helper still joins every stop-the-world minor
   collection, which slows whatever the process runs meanwhile, so a call
   keeps no more helpers than it asked for (none at [~jobs:1]). [busy],
   [active] and every [job] field are guarded by [lock]; [kept] is touched
   only by the call that set [busy]. *)
type job = Idle | Run of (unit -> unit) | Quit
type helper = { wake : Condition.t; mutable job : job }

let lock = Mutex.create ()
let left = Condition.create ()
let busy = ref false
let active = ref 0
let kept : (helper * unit Domain.t) list ref = ref []

let rec serve h =
  Mutex.lock lock;
  let rec next () =
    match h.job with
    | Idle ->
      Condition.wait h.wake lock;
      next ()
    | job -> job
  in
  let job = next () in
  Mutex.unlock lock;
  match job with
  | Idle | Quit -> ()
  | Run work ->
    (* [work] already turns every task failure into a slot; a helper that
       died of one escaping anyway would leave every later caller waiting *)
    (try work () with _ -> ());
    Mutex.lock lock;
    h.job <- Idle;
    decr active;
    if !active = 0 then Condition.signal left;
    Mutex.unlock lock;
    serve h

(* [k] new kept helpers (none for [k <= 0]). The pool keeps at most
   [recommended_jobs () - 1], far below the runtime's cap on live
   domains. *)
let spawn k =
  List.init (max 0 k) (fun _ ->
      let h = { wake = Condition.create (); job = Idle } in
      (h, Domain.spawn (fun () -> serve h)))

let post job helpers =
  Mutex.lock lock;
  List.iter
    (fun (h, _) ->
      h.job <- job;
      Condition.signal h.wake)
    helpers;
  Mutex.unlock lock

(* Take the pool for a call of [jobs] workers: keep [jobs - 1] helpers
   (stopping the others), hand [work] to [wake] of them and return whether
   the pool was free. It is not while another call holds it (this call is
   then a task of the running batch, or runs on another domain at the same
   time): the call gets no helper rather than waiting. *)
let claim ~jobs ~wake work =
  Mutex.lock lock;
  let free = not !busy in
  busy := true;
  Mutex.unlock lock;
  if free then begin
    let keep = jobs - 1 in
    let have = List.length !kept in
    if have > keep then begin
      let leaving = List.filteri (fun j _ -> j >= keep) !kept in
      kept := List.filteri (fun j _ -> j < keep) !kept;
      post Quit leaving;
      List.iter (fun (_, d) -> Domain.join d) leaving
    end
    else kept := !kept @ spawn (min keep wake - have);
    let lent = List.filteri (fun j _ -> j < wake) !kept in
    Mutex.lock lock;
    active := List.length lent;
    Mutex.unlock lock;
    post (Run work) lent
  end;
  free

(* Wait until every helper [claim] woke has left the batch, then free the
   pool. *)
let release () =
  Mutex.lock lock;
  while !active > 0 do
    Condition.wait left lock
  done;
  busy := false;
  Mutex.unlock lock

(* Work-stealing is overkill for coarse scheduler tasks: a shared atomic
   next-task counter gives dynamic load balancing with no queues, and the
   results array (one writer per slot, read only after every worker left)
   keeps the output in task order regardless of which domain ran what. *)
let run_results ?(jobs = 1) (tasks : (unit -> 'a) array) =
  if jobs < 1 then
    invalid_arg
      (Printf.sprintf "Engine.Pool.run_results: jobs must be >= 1 (got %d)"
         jobs);
  let n = Array.length tasks in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let rec worker () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <- Some (attempt tasks.(i));
      worker ()
    end
  in
  (* a domain records backtraces only when told to, so every worker
     follows the caller's setting *)
  let backtraces = Printexc.backtrace_status () in
  let work () =
    Printexc.record_backtrace backtraces;
    worker ()
  in
  (* more workers than the hardware runs at once only add idle domains,
     and no helper is woken or spawned for fewer than two tasks *)
  let jobs = min jobs (recommended_jobs ()) in
  let claimed = claim ~jobs ~wake:(min jobs n - 1) work in
  worker ();
  if claimed then release ();
  Array.map (function Some r -> r | None -> assert false) results

exception Injected of string

type plan = { seed : int; rate : float }

let plan ?(rate = 0.05) ~seed () =
  if not (rate >= 0. && rate <= 1.) then
    invalid_arg "Engine.Faults.plan: rate must be in [0, 1]";
  { seed; rate }

(* The armed plan is read on every [hit]; counters are touched only while a
   plan is armed, so the disarmed fast path is one atomic load. *)
let armed_plan : plan option Atomic.t = Atomic.make None

let mutex = Mutex.create ()
let counters : (string, int) Hashtbl.t = Hashtbl.create 8
let injections = ref 0

let with_lock f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let arm p =
  with_lock (fun () ->
      Hashtbl.reset counters;
      injections := 0);
  Atomic.set armed_plan (Some p)

let disarm () = Atomic.set armed_plan None
let injected_count () = with_lock (fun () -> !injections)

(* The nth visit to a site fires iff hash(seed, site, n) falls under the
   rate: the firing set is a pure function of the plan, independent of which
   domain or task reaches the site. *)
let fires p ~site ~n =
  let h = Hashtbl.hash (p.seed, site, n) land 0xFFFFFF in
  float_of_int h < p.rate *. float_of_int 0x1000000

let hit site =
  match Atomic.get armed_plan with
  | None -> ()
  | Some p ->
    let fire =
      with_lock (fun () ->
          let n = Option.value ~default:0 (Hashtbl.find_opt counters site) in
          Hashtbl.replace counters site (n + 1);
          if fires p ~site ~n then begin
            incr injections;
            Some n
          end
          else None)
    in
    (match fire with
    | Some n -> raise (Injected (Printf.sprintf "%s#%d" site n))
    | None -> ())

let with_plan p f =
  arm p;
  Fun.protect ~finally:disarm f

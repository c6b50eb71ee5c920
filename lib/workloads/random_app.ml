module Gen = QCheck.Gen
module B = Kernel_ir.Builder
module Cluster = Kernel_ir.Cluster

let kernel_name i = Printf.sprintf "k%d" i

(* A random non-empty sorted subset of [lo..hi]. *)
let gen_consumers ~lo ~hi =
  let open Gen in
  if lo > hi then pure []
  else
    let* picks =
      list_size (int_range 1 (min 3 (hi - lo + 1))) (int_range lo hi)
    in
    pure (List.sort_uniq compare picks)

(* 2-6 kernels; every object is 8-256 words, and up to 8 extra objects
   join each kernel's private input and final. *)
let gen_app =
  let open Gen in
  let* n = int_range 2 6 in
  let* iterations = int_range 2 12 in
  let* kernel_specs =
    list_repeat n
      (pair (int_range 32 256) (* contexts *) (int_range 100 600)
      (* cycles *))
  in
  let base =
    List.fold_left
      (fun (b, i) (contexts, cycles) ->
        (B.kernel (kernel_name i) ~contexts ~cycles b, i + 1))
      (B.create "random" ~iterations, 0)
      kernel_specs
    |> fst
  in
  (* every kernel gets a private input so no kernel is data-free *)
  let* private_sizes = list_repeat n (int_range 8 256) in
  let base =
    List.fold_left
      (fun (b, i) size ->
        ( B.input (Printf.sprintf "in%d" i) ~size
            ~consumers:[ kernel_name i ] b,
          i + 1 ))
      (base, 0) private_sizes
    |> fst
  in
  (* extra random objects: shared inputs, intermediate chains, finals *)
  let* extras = int_range 0 8 in
  let gen_extra i =
    let* size = int_range 8 256 in
    let* kind = int_range 0 2 in
    match kind with
    | 0 ->
      (* shared external input, sometimes an iteration-invariant table *)
      let* consumers = gen_consumers ~lo:0 ~hi:(n - 1) in
      let* invariant = QCheck.Gen.bool in
      pure
        (B.input ~invariant
           (Printf.sprintf "sh%d" i)
           ~size
           ~consumers:(List.map kernel_name consumers))
    | 1 when n >= 2 ->
      (* result of some kernel, consumed later, possibly also final *)
      let* producer = int_range 0 (n - 2) in
      let* consumers = gen_consumers ~lo:(producer + 1) ~hi:(n - 1) in
      let* final = bool in
      pure
        (B.result
           (Printf.sprintf "r%d" i)
           ~final ~size
           ~producer:(kernel_name producer)
           ~consumers:(List.map kernel_name consumers))
    | _ ->
      (* pure final result *)
      let* producer = int_range 0 (n - 1) in
      pure
        (B.final (Printf.sprintf "f%d" i) ~size ~producer:(kernel_name producer))
  in
  let* extra_fns = List.init extras gen_extra |> flatten_l in
  (* every kernel must also produce something for realism: add a final per
     kernel lacking outputs, deterministic and cheap *)
  let b = List.fold_left (fun b f -> f b) base extra_fns in
  let b =
    List.fold_left
      (fun b i ->
        B.final (Printf.sprintf "out%d" i) ~size:16
          ~producer:(kernel_name i) b)
      b
      (List.init n (fun i -> i))
  in
  pure (B.build b)

(* Deterministic large application for the scaling benchmarks: [seed]
   (together with the size parameters) fully determines the result — no
   QCheck state involved. [data] counts the extra shared/result objects on
   top of the per-kernel private input and final, so the total object count
   is [2 * kernels + data]. Shared objects span small windows of nearby
   kernels, giving the retention pass realistic local candidates. *)
let large ~kernels ~data ~seed =
  if kernels < 1 then invalid_arg "Random_app.large: kernels must be >= 1";
  if data < 0 then invalid_arg "Random_app.large: data must be >= 0";
  let st = Random.State.make [| 0x5eed; seed; kernels; data |] in
  let int lo hi = lo + Random.State.int st (hi - lo + 1) in
  let b =
    ref
      (B.create
         (Printf.sprintf "large-%dk-%dd-s%d" kernels data seed)
         ~iterations:16)
  in
  for i = 0 to kernels - 1 do
    b := B.kernel (kernel_name i) ~contexts:(int 16 48) ~cycles:(int 100 600) !b
  done;
  for i = 0 to kernels - 1 do
    b :=
      B.input (Printf.sprintf "in%d" i) ~size:(int 8 64)
        ~consumers:[ kernel_name i ]
        !b
  done;
  for i = 0 to data - 1 do
    let size = int 8 64 in
    let kind = int 0 3 in
    if kind <= 1 && kernels >= 2 then begin
      (* shared input consumed by a window of nearby kernels *)
      let first = int 0 (kernels - 2) in
      let width = min (kernels - 1 - first) (int 1 4) in
      let consumers =
        List.init (width + 1) (fun j -> kernel_name (first + j))
      in
      let invariant = int 0 3 = 0 in
      b := B.input ~invariant (Printf.sprintf "sh%d" i) ~size ~consumers !b
    end
    else if kind = 2 && kernels >= 2 then begin
      (* result shared with a window of later kernels *)
      let producer = int 0 (kernels - 2) in
      let width = min (kernels - 1 - producer) (int 1 4) in
      let consumers =
        List.init width (fun j -> kernel_name (producer + 1 + j))
      in
      b :=
        B.result (Printf.sprintf "r%d" i) ~final:(int 0 1 = 0) ~size
          ~producer:(kernel_name producer) ~consumers !b
    end
    else
      b :=
        B.final (Printf.sprintf "f%d" i) ~size
          ~producer:(kernel_name (int 0 (kernels - 1)))
          !b
  done;
  for i = 0 to kernels - 1 do
    b := B.final (Printf.sprintf "out%d" i) ~size:16 ~producer:(kernel_name i) !b
  done;
  B.build !b

(* Kernels clustered two by two in execution order (trailing singleton when
   odd) — the deterministic clustering the scaling bench schedules. *)
let pairs_clustering app =
  let n = Kernel_ir.Application.n_kernels app in
  let rec sizes r =
    if r = 0 then [] else if r = 1 then [ 1 ] else 2 :: sizes (r - 2)
  in
  Cluster.of_partition app (sizes n)

let gen_clustering app =
  let open Gen in
  let n = Kernel_ir.Application.n_kernels app in
  let rec gen_sizes remaining =
    if remaining = 0 then pure []
    else
      let* first = int_range 1 remaining in
      let* rest = gen_sizes (remaining - first) in
      pure (first :: rest)
  in
  let* sizes = gen_sizes n in
  pure (Cluster.of_partition app sizes)

let gen_app_with_clustering =
  let open Gen in
  let* app = gen_app in
  let* clustering = gen_clustering app in
  pure (app, clustering)

let arb_app_with_clustering =
  QCheck.make
    ~print:(fun (app, clustering) ->
      Format.asprintf "%a@\n%a" Kernel_ir.Application.pp app
        Cluster.pp_clustering clustering)
    gen_app_with_clustering

(* The textual application format: parsing, error reporting, render
   round-trip, and end-to-end scheduling of a parsed spec. *)

let sample =
  {|# a small pipeline
app demo iterations 16

kernel iq   contexts 384 cycles 520
kernel idct contexts 384 cycles 560

input  coeff   size 256 -> iq
input  hdr     size 56  -> iq idct
result dequant size 320 from iq -> idct
result half    size 64  from iq -> idct final
final  out     size 256 from idct

partition 1 1
fb 2048
cm 4096
|}

let parse_ok text =
  match Appdsl.parse text with
  | Ok spec -> spec
  | Error e -> Alcotest.fail (Diag.to_string e)

let test_parse_sample () =
  let spec = parse_ok sample in
  let app = spec.Appdsl.app in
  Alcotest.(check string) "name" "demo" app.Kernel_ir.Application.name;
  Alcotest.(check int) "iterations" 16 app.Kernel_ir.Application.iterations;
  Alcotest.(check int) "kernels" 2 (Kernel_ir.Application.n_kernels app);
  Alcotest.(check int) "data objects" 5 (List.length app.Kernel_ir.Application.data);
  let half = Kernel_ir.Application.data_by_name app "half" in
  Alcotest.(check bool) "result can be final too" true half.Kernel_ir.Data.final;
  Alcotest.(check bool) "and still consumed" true
    (half.Kernel_ir.Data.consumers <> []);
  Alcotest.(check (option (list int))) "partition" (Some [ 1; 1 ])
    spec.Appdsl.partition;
  Alcotest.(check (option int)) "fb" (Some 2048) spec.Appdsl.fb_set_size;
  Alcotest.(check (option int)) "cm" (Some 4096) spec.Appdsl.cm_capacity

let test_parse_errors () =
  let expect_error fragment text =
    match Appdsl.parse text with
    | Error d ->
      let msg = Diag.to_string d in
      Alcotest.(check bool)
        (Printf.sprintf "error %S mentions %S" msg fragment)
        true
        (Astring_contains.contains msg fragment)
    | Ok _ -> Alcotest.fail ("expected parse failure for: " ^ text)
  in
  expect_error "app" "kernel k contexts 1 cycles 1";
  expect_error "line 2" "app a iterations 4\nbogus directive";
  expect_error "integer" "app a iterations many";
  expect_error "consumer" "app a iterations 1\nkernel k contexts 1 cycles 1\ninput d size 4 ->";
  expect_error "duplicate" "app a iterations 1\napp b iterations 2";
  expect_error "'->'" "app a iterations 1\nkernel k contexts 1 cycles 1\ninput d size 4 k";
  (* kernel names are checked at the line that names them *)
  expect_error "line 3: unknown kernel \"ghost\""
    "app a iterations 1\nkernel k contexts 1 cycles 1\ninput d size 4 -> ghost";
  expect_error "line 3: duplicate kernel name \"k\""
    "app a iterations 1\nkernel k contexts 1 cycles 1\n\
     kernel k contexts 1 cycles 1\ninput d size 4 -> k";
  (* so are a repeated data name and a consumer declared before the
     producer, found only once every kernel is known *)
  expect_error "line 4: duplicate data name \"d\""
    "app a iterations 1\nkernel k contexts 1 cycles 1\n\
     input d size 4 -> k\ninput d size 4 -> k\nfinal o size 4 from k";
  expect_error "line 5: a consumer of \"r\" precedes its producer"
    "app a iterations 1\nkernel a contexts 1 cycles 1\n\
     kernel b contexts 1 cycles 1\ninput d size 4 -> b\n\
     result r size 4 from b -> a\nfinal o size 4 from a";
  (* a data line may name a kernel declared further down *)
  match
    Appdsl.parse
      "app a iterations 1\ninput d size 4 -> k\nkernel k contexts 1 cycles 1\n\
       final o size 4 from k"
  with
  | Ok _ -> ()
  | Error d ->
    Alcotest.fail ("forward kernel reference rejected: " ^ Diag.to_string d)

(* A bad [kernel], [partition], [fb] or [cm] is a parse error at its own
   line, so the machine and clustering built from a parsed spec never
   raise. *)
let test_bad_values () =
  let head = "app a iterations 2\nkernel k contexts 4 cycles 5\n\
              kernel l contexts 4 cycles 5\ninput d size 4 -> k l\n" in
  let expect ?(code = Diag.Invalid_app) line fragment text =
    match Appdsl.parse (head ^ text) with
    | Error d ->
      let msg = Diag.to_string d in
      Alcotest.(check bool)
        (Printf.sprintf "error %S is at line %d and mentions %S" msg line
           fragment)
        true
        (String.starts_with ~prefix:(Printf.sprintf "line %d: " line) msg
        && Astring_contains.contains msg fragment);
      Alcotest.(check string) "error code" (Diag.code_name code)
        (Diag.code_name d.Diag.code)
    | Ok _ -> Alcotest.fail ("expected parse failure for: " ^ text)
  in
  let clustering = Diag.Invalid_clustering and config = Diag.Invalid_config in
  expect ~code:clustering 5 "sum to 3 but the application has 2 kernels"
    "partition 1 2\n";
  expect ~code:clustering 6 "non-positive cluster size 0" "\npartition 0 2";
  expect ~code:config 5 "fb_set_size must be positive" "fb 0\n";
  expect ~code:config 6 "cm_capacity must be positive" "fb 512\ncm -4\n";
  expect 5 "kernel \"m\" has non-positive context words (0)"
    "kernel m contexts 0 cycles 5\n";
  expect 6 "kernel \"m\" has non-positive exec cycles (-1)"
    "\nkernel m contexts 4 cycles -1\n";
  (* every integer that enters a product is bounded *)
  let huge = string_of_int (max_int / 2) in
  expect 5 "data \"e\" has size 2305843009213693951 above the bound 1048576"
    ("input e size " ^ huge ^ " -> k\n");
  expect 5 "kernel \"m\" has exec cycles 2305843009213693951 above the bound"
    ("kernel m contexts 4 cycles " ^ huge ^ "\n");
  expect ~code:config 5 "fb_set_size must be at most 1048576"
    ("fb " ^ huge ^ "\n");
  (match Appdsl.parse "app a iterations 100000\n" with
  | Error d ->
    Alcotest.(check string) "iterations bound at line 1"
      "line 1: iterations must be at most 65536 (got 100000)"
      (Diag.to_string d)
  | Ok _ -> Alcotest.fail "expected the iteration bound");
  let spec = parse_ok (head ^ "partition 1 1\nfb 512\ncm 64\n") in
  Alcotest.(check int) "good values still parse" 2
    (Kernel_ir.Cluster.n_clusters
       (Kernel_ir.Cluster.of_partition spec.Appdsl.app
          (Option.get spec.Appdsl.partition)))

let test_round_trip () =
  let spec = parse_ok sample in
  let spec2 = parse_ok (Appdsl.render spec) in
  Alcotest.(check string) "same app name" spec.Appdsl.app.Kernel_ir.Application.name
    spec2.Appdsl.app.Kernel_ir.Application.name;
  Alcotest.(check int) "same data count"
    (List.length spec.Appdsl.app.Kernel_ir.Application.data)
    (List.length spec2.Appdsl.app.Kernel_ir.Application.data);
  Alcotest.(check (option (list int))) "same partition" spec.Appdsl.partition
    spec2.Appdsl.partition;
  List.iter2
    (fun (a : Kernel_ir.Data.t) (b : Kernel_ir.Data.t) ->
      Alcotest.(check bool) "same data object" true (Kernel_ir.Data.equal a b))
    spec.Appdsl.app.Kernel_ir.Application.data
    spec2.Appdsl.app.Kernel_ir.Application.data

let test_schedule_parsed_spec () =
  let spec = parse_ok sample in
  let config =
    Morphosys.Config.make
      ~fb_set_size:(Option.get spec.Appdsl.fb_set_size)
      ~cm_capacity:(Option.get spec.Appdsl.cm_capacity)
      ()
  in
  let clustering =
    Kernel_ir.Cluster.of_partition spec.Appdsl.app
      (Option.get spec.Appdsl.partition)
  in
  let c = Cds.Pipeline.run config spec.Appdsl.app clustering in
  Alcotest.(check bool) "cds feasible" true (Result.is_ok c.Cds.Pipeline.cds);
  match Cds.Pipeline.improvement c `Cds with
  | Some pct -> Alcotest.(check bool) "non-negative improvement" true (pct >= 0.)
  | None -> Alcotest.fail "no improvement computed"

let test_defaults () =
  let spec = parse_ok "app a iterations 2\nkernel k contexts 4 cycles 5\ninput d size 4 -> k\nfinal o size 4 from k" in
  Alcotest.(check (option int)) "no fb" None spec.Appdsl.fb_set_size;
  Alcotest.(check (option int)) "no cm" None spec.Appdsl.cm_capacity;
  Alcotest.(check (option (list int))) "no partition" None
    spec.Appdsl.partition

(* round-trip property over random applications: render a spec from any
   random app, reparse, compare the IR piecewise *)
let prop_render_parse_round_trip =
  QCheck.Test.make ~name:"render/parse round-trips random apps" ~count:100
    Workloads.Random_app.arb_app_with_clustering (fun (app, clustering) ->
      let spec =
        {
          Appdsl.app;
          partition = Some (Kernel_ir.Cluster.partition_sizes clustering);
          fb_set_size = Some 4096;
          cm_capacity = None;
        }
      in
      match Appdsl.parse (Appdsl.render spec) with
      | Error _ -> false
      | Ok spec2 ->
        let a = spec.Appdsl.app and b = spec2.Appdsl.app in
        a.Kernel_ir.Application.name = b.Kernel_ir.Application.name
        && a.Kernel_ir.Application.iterations = b.Kernel_ir.Application.iterations
        && Array.for_all2 Kernel_ir.Kernel.equal a.Kernel_ir.Application.kernels
             b.Kernel_ir.Application.kernels
        && List.for_all2 Kernel_ir.Data.equal a.Kernel_ir.Application.data
             b.Kernel_ir.Application.data
        && spec2.Appdsl.partition = spec.Appdsl.partition)

(* Hostile text: byte overwrites, truncations and token swaps of the
   bundled spec and of rendered random apps. [parse] must answer [Ok] or
   [Error], never raise, and a spec it accepts must build its machine and
   clustering. *)
let edge_detect =
  lazy
    (In_channel.with_open_text "../examples/specs/edge_detect.app"
       In_channel.input_all)

type mutation =
  | Overwrite of int * char  (* the byte at a position *)
  | Truncate of int
  | Swap of int * int  (* two tokens (see [map_tokens]) *)
  | Replace of int * string  (* a token by a hostile one *)
  | Renumber of int * string  (* an integer token by a hostile one *)

let hostile_tokens = [ "-"; "->"; "final"; "invariant"; "#"; "" ]

let hostile_numbers =
  [ "0"; "-1"; "1"; "99999999999999999999"; string_of_int max_int ]

let is_int t = int_of_string_opt t <> None

(* [f k t] rewrites [t], the [k]-th space-separated token satisfying
   [only], counted across lines *)
let map_tokens ?(only = fun _ -> true) f text =
  let k = ref (-1) in
  String.split_on_char '\n' text
  |> List.map (fun line ->
         String.split_on_char ' ' line
         |> List.map (fun t ->
                if only t then begin
                  incr k;
                  f !k t
                end
                else t)
         |> String.concat " ")
  |> String.concat "\n"

let mutate text m =
  let n = String.length text in
  let tokens =
    String.split_on_char '\n' text
    |> List.concat_map (String.split_on_char ' ')
    |> Array.of_list
  in
  let nt = Array.length tokens in
  let ni = Array.fold_left (fun n t -> if is_int t then n + 1 else n) 0 tokens in
  match m with
  | _ when n = 0 -> text
  | Overwrite (p, c) ->
    String.mapi (fun i b -> if i = p mod n then c else b) text
  | Truncate p -> String.sub text 0 (p mod n)
  | Replace (i, tok) ->
    map_tokens (fun k t -> if k = i mod nt then tok else t) text
  | Renumber (_, _) when ni = 0 -> text
  | Renumber (i, tok) ->
    map_tokens ~only:is_int (fun k t -> if k = i mod ni then tok else t) text
  | Swap (i, j) ->
    let i = i mod nt and j = j mod nt in
    map_tokens
      (fun k t ->
        if k = i then tokens.(j) else if k = j then tokens.(i) else t)
      text

let gen_hostile_text =
  let open QCheck.Gen in
  let base =
    oneof
      [
        map (fun () -> Lazy.force edge_detect) unit;
        map
          (fun (app, clustering) ->
            Appdsl.render
              {
                Appdsl.app;
                partition = Some (Kernel_ir.Cluster.partition_sizes clustering);
                fb_set_size = Some 2048;
                cm_capacity = Some 4096;
              })
          Workloads.Random_app.gen_app_with_clustering;
      ]
  in
  let mutation =
    oneof
      [
        map2
          (fun p c -> Overwrite (p, c))
          nat
          (oneofl (List.of_seq (String.to_seq "0-1 9\n#>x")));
        map (fun p -> Truncate p) nat;
        map2 (fun i j -> Swap (i, j)) nat nat;
        map2 (fun i t -> Replace (i, t)) nat (oneofl hostile_tokens);
        map2 (fun i t -> Renumber (i, t)) nat (oneofl hostile_numbers);
      ]
  in
  map2 (List.fold_left mutate) base (list_size (int_range 1 4) mutation)

let prop_parse_hostile_text =
  QCheck.Test.make ~name:"parse never raises on hostile text" ~count:500
    (QCheck.make ~print:(Printf.sprintf "%S") gen_hostile_text)
    (fun text ->
      match Appdsl.parse text with
      | Error _ -> true
      | Ok spec ->
        let fb_set_size =
          Option.value ~default:1024 spec.Appdsl.fb_set_size
        in
        ignore
          (Morphosys.Config.make ?cm_capacity:spec.Appdsl.cm_capacity
             ~fb_set_size ());
        Option.iter
          (fun sizes ->
            ignore (Kernel_ir.Cluster.of_partition spec.Appdsl.app sizes))
          spec.Appdsl.partition;
        true)

let tests =
  ( "appdsl",
    [
      Alcotest.test_case "parse sample" `Quick test_parse_sample;
      Alcotest.test_case "parse errors" `Quick test_parse_errors;
      Alcotest.test_case "bad partition, fb and cm" `Quick test_bad_values;
      Alcotest.test_case "round trip" `Quick test_round_trip;
      Alcotest.test_case "schedule parsed spec" `Quick test_schedule_parsed_spec;
      Alcotest.test_case "defaults" `Quick test_defaults;
      QCheck_alcotest.to_alcotest prop_render_parse_round_trip;
      QCheck_alcotest.to_alcotest prop_parse_hostile_text;
    ] )

module Analysis = Kernel_ir.Analysis

type t = {
  analysis : Analysis.t;
  sweeps : Ds_formula.sweep array;
  basic_footprints : int array;
}

let make app clustering =
  let analysis = Analysis.make app clustering in
  {
    analysis;
    sweeps = Array.map Ds_formula.sweep analysis.Analysis.profiles;
    basic_footprints =
      Array.map Ds_formula.footprint_basic analysis.Analysis.profiles;
  }

let analysis t = t.analysis
let app t = t.analysis.Analysis.app
let clustering t = t.analysis.Analysis.clustering

let splits_list t =
  Array.fold_right
    (fun (s : Ds_formula.sweep) acc -> (s.per_iteration, s.constant) :: acc)
    t.sweeps []

let footprints_list t =
  Array.fold_right
    (fun (s : Ds_formula.sweep) acc -> s.footprint :: acc)
    t.sweeps []

let basic_footprints_list t = Array.to_list t.basic_footprints

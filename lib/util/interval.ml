type t = { lo : int; hi : int }

let make ~lo ~hi =
  if hi < lo then invalid_arg "Interval.make: hi < lo";
  { lo; hi }

let length t = t.hi - t.lo
let is_empty t = t.hi = t.lo
let contains t x = x >= t.lo && x < t.hi
let overlaps a b = a.lo < b.hi && b.lo < a.hi
let adjacent a b = a.hi = b.lo || b.hi = a.lo

let merge a b =
  if not (overlaps a b || adjacent a b) then
    invalid_arg "Interval.merge: disjoint intervals";
  { lo = min a.lo b.lo; hi = max a.hi b.hi }

let compare_lo a b = compare a.lo b.lo
let pp fmt t = Format.fprintf fmt "[%d,%d)" t.lo t.hi
let equal a b = a.lo = b.lo && a.hi = b.hi

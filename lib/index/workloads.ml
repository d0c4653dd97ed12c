(* Shared workload recipes for the benches and the conformance suite.
   One place fixes the dataset ranges and query generation, so every
   registry-driven consumer measures the same distributions the legacy
   benches did (2-d range 100, 3-d/d-dim range 50, 3-d coefficients
   clamped to ±9.9 inside the builders' clip box). *)

type kind = Uniform | Clusters | Diagonal

let kinds = [ Uniform; Clusters; Diagonal ]

let kind_name = function
  | Uniform -> "uniform"
  | Clusters -> "clusters"
  | Diagonal -> "diagonal"

let range2 = 100.
let range3 = 50.
let coeff_clamp = 9.9

(* A dataset of [n] points in dimension [dim], drawn from [kind], in
   the point representation [m] prefers. *)
let dataset rng ~kind ~dim ~n (module M : Index.S) =
  match M.preferred ~dim with
  | `Pts2 ->
      if dim <> 2 then
        invalid_arg "Workloads.dataset: 2-d representation at dim <> 2";
      Index.Pts2
        (match kind with
        | Uniform -> Workload.uniform2 rng ~n ~range:range2
        | Clusters ->
            Workload.clusters2 rng ~n ~clusters:10 ~sigma:3. ~range:range2
        | Diagonal -> Workload.diagonal2 rng ~n ~jitter:0.01 ~range:range2)
  | `Pts3 ->
      if dim <> 3 then
        invalid_arg "Workloads.dataset: 3-d representation at dim <> 3";
      Index.Pts3
        (match kind with
        | Uniform -> Workload.uniform3 rng ~n ~range:range3
        | Clusters ->
            Workload.clusters3 rng ~n ~clusters:10 ~sigma:3. ~range:range3
        | Diagonal -> Workload.diagonal3 rng ~n ~jitter:0.01 ~range:range3)
  | `PtsD -> Index.PtsD (Workload.uniform_d rng ~n ~dim ~range:range3)

let clamp v = Float.max (-.coeff_clamp) (Float.min coeff_clamp v)

(* One halfspace query with ~[fraction] selectivity over [ds], in the
   unified {a0; a} form.  Consumes the rng exactly like the legacy
   per-variant generators did. *)
let query rng ds ~fraction : Index.query =
  match ds with
  | Index.Pts2 pts ->
      let slope, icept = Workload.halfplane_with_selectivity rng pts ~fraction in
      { a0 = icept; a = [| slope |] }
  | Index.Pts3 pts ->
      let a, b, c = Workload.halfspace3_with_selectivity rng pts ~fraction in
      { a0 = c; a = [| clamp a; clamp b |] }
  | Index.PtsD pts ->
      let a0, a = Workload.halfspace_d_with_selectivity rng pts ~fraction in
      { a0; a }

let queries rng ds ~fraction ~count =
  (* Explicit left-to-right loop: rng consumption order is part of the
     reproducibility contract (List.init's order is unspecified). *)
  let rec go i acc =
    if i = count then List.rev acc
    else go (i + 1) (query rng ds ~fraction :: acc)
  in
  go 0 []

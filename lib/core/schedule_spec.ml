module Pipeline = Pmdp_dsl.Pipeline
module Dag = Pmdp_dag.Dag
module Group_analysis = Pmdp_analysis.Group_analysis
module Footprint = Pmdp_analysis.Footprint

type group = { stages : int list; tile_sizes : int array }
type t = { pipeline : Pipeline.t; groups : group list }

let refuse kind fmt =
  Printf.ksprintf (fun reason -> invalid_arg (Printf.sprintf "Schedule_spec: %s: %s" kind reason)) fmt

let stage_name p s = (Pipeline.stage p s).Pmdp_dsl.Stage.name

(* The group index of every stage, refusing — with the static
   analyzer's kind slugs — a grouping that is not a partition of the
   pipeline's stages. *)
let owners p groups =
  let n = Pipeline.n_stages p in
  let owner = Array.make n (-1) in
  List.iteri
    (fun gi stages ->
      List.iter
        (fun s ->
          if s < 0 || s >= n then refuse "partition" "stage id %d out of range [0, %d)" s n;
          if owner.(s) >= 0 then
            refuse "multi-writer" "stage %s is in groups %d and %d" (stage_name p s) owner.(s) gi;
          owner.(s) <- gi)
        stages)
    groups;
  Array.iteri
    (fun s o -> if o < 0 then refuse "partition" "stage %s is in no group" (stage_name p s))
    owner;
  owner

(* Order groups topologically (producers before consumers). *)
let topo_groups p (groups : group list) =
  let arr = Array.of_list groups in
  let color = Array.make (Pipeline.n_stages p) 0 in
  Array.iteri (fun gi g -> List.iter (fun s -> color.(s) <- gi) g.stages) arr;
  let qdag, _ = Dag.quotient p.Pipeline.dag color in
  let order = Dag.topo_sort qdag in
  List.map (fun gi -> arr.(gi)) order

let default_tiles_for config p stages =
  let v = Cost_model.cost config p stages in
  if v.Cost_model.cost < infinity then Some v.Cost_model.tile_sizes else None

let rec assign config p stages =
  match default_tiles_for config p stages with
  | Some tiles -> [ { stages; tile_sizes = tiles } ]
  | None -> (
      match stages with
      | [ _ ] ->
          (* A singleton is always analyzable; if the cost model ever
             returns infinity here it is a bug upstream. *)
          invalid_arg "Schedule_spec: singleton stage deemed unfusable"
      | _ -> List.concat_map (fun s -> assign config p [ s ]) stages)

let of_grouping config p grouping =
  ignore (owners p grouping);
  let groups = List.concat_map (fun g -> assign config p g) grouping in
  { pipeline = p; groups = topo_groups p groups }

let fit_tiles (ga : Group_analysis.t) tiles =
  let n = ga.Group_analysis.n_dims in
  let fitted =
    Array.init n (fun g ->
        let from_end = n - 1 - g in
        let src = Array.length tiles - 1 - from_end in
        if src >= 0 then tiles.(src) else Group_analysis.dim_extent ga g)
  in
  Footprint.clamp_tile ga fitted

let rec with_tiles_group p (stages, tiles) =
  match Group_analysis.analyze p stages with
  | Ok ga -> [ { stages; tile_sizes = fit_tiles ga tiles } ]
  | Error _ -> (
      match stages with
      | [ _ ] -> invalid_arg "Schedule_spec: singleton stage failed analysis"
      | _ -> List.concat_map (fun s -> with_tiles_group p ([ s ], tiles)) stages)

let with_tiles p specs =
  ignore (owners p (List.map fst specs));
  let groups = List.concat_map (with_tiles_group p) specs in
  { pipeline = p; groups = topo_groups p groups }

let dp config p =
  let outcome = Dp_grouping.run ~config p in
  (of_grouping config p outcome.Dp_grouping.groups, outcome)

let n_groups t = List.length t.groups

(* What a schedule must satisfy before lowering can even analyze it,
   refused with the static analyzer's kind slugs. *)
let validate t =
  let p = t.pipeline in
  let owner = owners p (List.map (fun g -> g.stages) t.groups) in
  List.iteri
    (fun gi g ->
      if g.stages <> [] && Array.length g.tile_sizes = 0 then
        refuse "tile-arity" "empty tile-size array for nonempty group %d" gi;
      Array.iter
        (fun ts -> if ts <= 0 then refuse "tile-nonpositive" "tile size %d in group %d" ts gi)
        g.tile_sizes;
      List.iter
        (fun s ->
          List.iter
            (fun prod ->
              if owner.(prod) > gi then
                refuse "group-order" "%s in group %d consumes %s, scheduled in later group %d"
                  (stage_name p s) gi (stage_name p prod) owner.(prod))
            (Pipeline.producers p s))
        g.stages)
    t.groups

let pp ppf t =
  Format.fprintf ppf "@[<v>schedule for %s (%d groups)@," t.pipeline.Pipeline.name
    (List.length t.groups);
  List.iteri
    (fun i g ->
      Format.fprintf ppf "  group %d: {%s} tiles=[%s]@," i
        (String.concat ","
           (List.map
              (fun s -> (Pipeline.stage t.pipeline s).Pmdp_dsl.Stage.name)
              g.stages))
        (String.concat "x" (Array.to_list (Array.map string_of_int g.tile_sizes))))
    t.groups;
  Format.fprintf ppf "@]"

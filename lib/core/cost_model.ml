module Machine = Pmdp_machine.Machine
module Group_analysis = Pmdp_analysis.Group_analysis
module Footprint = Pmdp_analysis.Footprint
module Reuse = Pmdp_analysis.Reuse
module Pipeline = Pmdp_dsl.Pipeline
module Stage = Pmdp_dsl.Stage

type w2_mode = Idle_penalty | Literal

(* Weights fitted to measured per-group wall times (lib/tune).  The
   analytic Table-1 weights are dimensionless rankings; calibrated
   weights carry units of seconds-per-feature, so a calibrated cost is
   a wall-time prediction for one group. *)
type calibration = {
  cal_machine : string;
  c0 : float;  (* per-group overhead intercept, seconds *)
  c_mem : float;  (* weight of the load-cost locality term (w1's slot) *)
  c_idle : float;  (* cleanup-wave idle-core term (w2's slot) *)
  c_overlap : float;  (* relative-overlap term (w3's slot) *)
  c_mismatch : float;  (* dimension-mismatch term (w4's slot) *)
}

type config = {
  machine : Machine.t;
  paper_n_tiles : bool;
  w2_mode : w2_mode;
  fuse_reductions : bool;
  calibrated : calibration option;
}

let config_of_machine ?calib machine =
  {
    machine;
    paper_n_tiles = false;
    w2_mode = Idle_penalty;
    fuse_reductions = false;
    calibrated = calib;
  }

let default_config machine = config_of_machine machine

type level = L1 | L2

(* Relative cost of a main-memory access vs an arithmetic operation;
   the paper's LOAD_COST estimate (§6.1). *)
let load_cost = 40.0

type verdict = {
  cost : float;
  tile_sizes : int array;
  level : level;
  analysis : Group_analysis.t option;
}

(* The model's four regressors for one (group, tile) choice — exactly
   the terms the analytic weights multiply, so a calibration fitted
   over these features is a drop-in reweighting of the same model. *)
type features = {
  f_mem : float;  (* load_cost * (live-in + live-out tile bytes) / compute volume *)
  f_idle : float;  (* idle cores in the cleanup wave / number of waves *)
  f_overlap : float;  (* redundant compute as a fraction of tile volume *)
  f_mismatch : float;  (* mean CV of member extents across group dims *)
}

let analytic_of_features (m : Machine.t) f =
  (m.Machine.w1 *. f.f_mem) +. (m.Machine.w2 *. f.f_idle)
  +. (m.Machine.w3 *. f.f_overlap)
  +. (m.Machine.w4 *. f.f_mismatch)

let calibrated_of_features c f =
  c.c0 +. (c.c_mem *. f.f_mem) +. (c.c_idle *. f.f_idle)
  +. (c.c_overlap *. f.f_overlap)
  +. (c.c_mismatch *. f.f_mismatch)

let predict config f =
  match config.calibrated with
  | Some c -> calibrated_of_features c f
  | None -> analytic_of_features config.machine f

(* COMPUTETILESIZES (Alg. 2, lines 30-45).  Tile sizes live in the
   group's scaled iteration space. *)
let compute_tile_sizes (ga : Group_analysis.t) ~tile_footprint_bytes ~innermost_tile_size =
  let n_dims = ga.Group_analysis.n_dims in
  let tile_vol_elems =
    tile_footprint_bytes
    /. float_of_int (Footprint.n_buffers ga)
    /. float_of_int Footprint.bytes_per_elem
  in
  let tile_vol_elems = Float.max 1.0 tile_vol_elems in
  let dim_reuse = Reuse.scores ga in
  let dim_size g = Group_analysis.dim_extent ga g in
  let tile = Array.make n_dims 1 in
  let innermost = n_dims - 1 in
  tile.(innermost) <- min (dim_size innermost) innermost_tile_size;
  if n_dims > 1 then begin
    let tau = ref (tile_vol_elems /. float_of_int tile.(innermost)) in
    let max_reuse = ref dim_reuse.(0) in
    for g = 1 to n_dims - 2 do
      max_reuse := Float.max !max_reuse dim_reuse.(g)
    done;
    for g = 0 to n_dims - 2 do
      tau := !tau /. (dim_reuse.(g) /. !max_reuse)
    done;
    let tau = Float.pow !tau (1.0 /. float_of_int (n_dims - 1)) in
    for g = 0 to n_dims - 2 do
      let proposed = tau *. dim_reuse.(g) /. !max_reuse in
      tile.(g) <- max 1 (min (dim_size g) (int_of_float (Float.round proposed)))
    done
  end;
  tile

(* Relative mismatch between the extents of corresponding fused
   dimensions across the group's stages (the w4 term): the mean, over
   dimensions, of the coefficient of variation of member extents. *)
let dim_size_mismatch (ga : Group_analysis.t) =
  let n = Array.length ga.Group_analysis.members in
  if n <= 1 then 0.0
  else begin
    let total = ref 0.0 in
    for g = 0 to ga.Group_analysis.n_dims - 1 do
      let extents =
        Array.init n (fun m ->
            float_of_int
              (ga.Group_analysis.scaled_hi.(m).(g) - ga.Group_analysis.scaled_lo.(m).(g) + 1))
      in
      total := !total +. Pmdp_util.Stats.coefficient_of_variation extents
    done;
    !total /. float_of_int ga.Group_analysis.n_dims
  end

(* Regressors for an explicit tile choice (clamped to the group's
   scaled extents) — the same terms COSTFORCACHESIZE combines, exposed
   so bench export and tile search can score tiles the DP did not
   pick.  Always uses the actual per-dimension tile-count product
   (measured executions tile that way regardless of ablation flags). *)
let features_for_tile config (ga : Group_analysis.t) ~tile =
  let machine = config.machine in
  let tile = Footprint.clamp_tile ga tile in
  let livein_tile = Footprint.livein_tile_bytes ga ~tile in
  let liveout_tile = Footprint.liveout_tile_bytes ga ~tile in
  let comp_vol = Float.max 1.0 (Footprint.tile_compute_volume ga ~tile) in
  let n_tiles = Footprint.n_tiles ga ~tile in
  let overlap = Footprint.overlap_points ga ~tile in
  let cores = machine.Machine.cores in
  let idle_cores = (cores - (n_tiles mod cores)) mod cores in
  let waves = max 1 ((n_tiles + cores - 1) / cores) in
  {
    f_mem = load_cost *. ((livein_tile +. liveout_tile) /. comp_vol);
    f_idle = float_of_int idle_cores /. float_of_int waves;
    f_overlap = overlap /. comp_vol;
    f_mismatch = dim_size_mismatch ga;
  }

let group_features config pipeline ~stages ~tile =
  match
    Group_analysis.analyze ~allow_fused_reductions:config.fuse_reductions pipeline stages
  with
  | Error _ -> None
  | Ok ga -> Some (features_for_tile config ga ~tile)

let predicted_cost config pipeline groups =
  List.fold_left
    (fun acc (stages, tile) ->
      match acc with
      | None -> None
      | Some total ->
          Option.map
            (fun f -> total +. predict config f)
            (group_features config pipeline ~stages ~tile))
    (Some 0.0) groups

(* COSTFORCACHESIZE (Alg. 2, lines 12-28). *)
let cost_for_cache_size config (ga : Group_analysis.t) ~cache_bytes =
  let machine = config.machine in
  let ncores = float_of_int machine.Machine.cores in
  let liveout_size = Footprint.liveouts_bytes ga in
  let total_footprint = Footprint.intermediates_bytes ga +. liveout_size in
  let tile_footprint = Float.min (total_footprint /. ncores) (float_of_int cache_bytes) in
  let tile_footprint = Float.max (float_of_int Footprint.bytes_per_elem) tile_footprint in
  let tile =
    compute_tile_sizes ga ~tile_footprint_bytes:tile_footprint
      ~innermost_tile_size:machine.Machine.innermost_tile_size
  in
  let tile = Footprint.clamp_tile ga tile in
  let livein_tile = Footprint.livein_tile_bytes ga ~tile in
  let liveout_tile = Footprint.liveout_tile_bytes ga ~tile in
  let comp_vol = Float.max 1.0 (Footprint.tile_compute_volume ga ~tile) in
  let n_tiles =
    if config.paper_n_tiles then
      int_of_float (Float.max 1.0 (total_footprint /. tile_footprint))
    else Footprint.n_tiles ga ~tile
  in
  let overlap = Footprint.overlap_points ga ~tile in
  (* Relative overlap: "amount of redundant computation performed as a
     fraction of tile volume" (§4.1 criterion 3).  Alg. 2 line 23
     prints ÷tileFootprint, but normalizing compute points by footprint
     bytes lets deeply-redundant groups (e.g. a whole image pyramid
     fused into one group, recomputing ~50% of its work per tile) look
     like 3% overlap; the prose definition is the meaningful one. *)
  let relative_overlap = overlap /. comp_vol in
  let dim_diff = dim_size_mismatch ga in
  let cores = machine.Machine.cores in
  (* The paper's term -w2*((n_tiles + C - 1) mod C) equals
     -w2*(C-1) + w2*idle_cores: an idle-core (cleanup-wave) penalty
     shifted by a per-group constant.  Summed over groups by the DP,
     the constant rewards splitting regardless of anything else, so
     the default drops it and keeps the equivalent penalty; [Literal]
     keeps the printed form for the ablation study. *)
  let idle_cores = (cores - (n_tiles mod cores)) mod cores in
  let w2_term =
    match config.w2_mode with
    | Idle_penalty ->
        (* Idle cores in the cleanup wave, weighted by the fraction of
           the group's waves that wave represents — the actual load
           imbalance cost.  An unweighted per-group idle term would
           (like the literal form, with opposite sign) mostly reward
           or punish the *number* of groups. *)
        let waves = max 1 ((n_tiles + cores - 1) / cores) in
        machine.Machine.w2 *. float_of_int idle_cores /. float_of_int waves
    | Literal -> -.(machine.Machine.w2 *. float_of_int ((n_tiles + cores - 1) mod cores))
  in
  (* The live-data-to-computation ratio is scaled by the relative
     cost of a memory access vs an arithmetic operation (the same
     LOAD_COST = 40 the paper uses for the Halide baseline, §6.1);
     this puts the w1 term in the same currency as the w3 overlap
     penalty, making the implicit overlap tolerance w2*(C-1)/w3 ≈ 3%
     the actual fusion/recompute trade-off. *)
  let f_mem = load_cost *. ((livein_tile +. liveout_tile) /. comp_vol) in
  let cost =
    match config.calibrated with
    | Some c ->
        (* Calibrated mode predicts seconds; the idle regressor is the
           Idle_penalty form over the same n_tiles the analytic path
           used, so ablation flags keep their meaning. *)
        let waves = max 1 ((n_tiles + cores - 1) / cores) in
        calibrated_of_features c
          {
            f_mem;
            f_idle = float_of_int idle_cores /. float_of_int waves;
            f_overlap = relative_overlap;
            f_mismatch = dim_diff;
          }
    | None ->
        (machine.Machine.w1 *. f_mem)
        +. w2_term
        +. (machine.Machine.w3 *. relative_overlap)
        +. (machine.Machine.w4 *. dim_diff)
  in
  (cost, tile, overlap)

let unfusable = { cost = infinity; tile_sizes = [||]; level = L1; analysis = None }

let cost config pipeline group =
  match
    Group_analysis.analyze ~allow_fused_reductions:config.fuse_reductions pipeline group
  with
  | Error _ -> unfusable
  | Ok ga ->
      let machine = config.machine in
      let c1, tile1, overlap1 = cost_for_cache_size config ga ~cache_bytes:machine.Machine.l1_bytes in
      let tile_volume = Footprint.tile_compute_volume ga ~tile:tile1 in
      if overlap1 > tile_volume then begin
        let c2, tile2, _ = cost_for_cache_size config ga ~cache_bytes:machine.Machine.l2_bytes in
        { cost = c2; tile_sizes = tile2; level = L2; analysis = Some ga }
      end
      else { cost = c1; tile_sizes = tile1; level = L1; analysis = Some ga }

let pp_verdict ppf v =
  if v.cost = infinity then Format.fprintf ppf "unfusable"
  else
    Format.fprintf ppf "cost=%.4g tiles=[%s] level=%s" v.cost
      (String.concat "x" (Array.to_list (Array.map string_of_int v.tile_sizes)))
      (match v.level with L1 -> "L1" | L2 -> "L2")

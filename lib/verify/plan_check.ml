module Pipeline = Pmdp_dsl.Pipeline
module Stage = Pmdp_dsl.Stage
module Expr = Pmdp_dsl.Expr
module GA = Pmdp_analysis.Group_analysis
module Rational = Pmdp_util.Rational
module Pmdp_error = Pmdp_util.Pmdp_error
module D = Diagnostic

let err = D.make D.Plan D.Error
let warn = D.make D.Plan D.Warning
let ceil_div a b = if a >= 0 then (a + b - 1) / b else -((-a) / b)
let floor_div a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)
let clamp x lo hi = if x < lo then lo else if x > hi then hi else x
let stage_name p sid = (Pipeline.stage p sid).Stage.name

(* --- plan/pipeline fit + partition --------------------------------- *)

let structure_diags p (ir : Pmdp_plan.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  if ir.Pmdp_plan.pipeline <> p.Pipeline.name then
    add
      (err ~kind:"pipeline-mismatch"
         (Printf.sprintf "plan is for pipeline %S, checking against %S" ir.Pmdp_plan.pipeline
            p.Pipeline.name));
  let n = Pipeline.n_stages p in
  if ir.Pmdp_plan.n_stages <> n then
    add
      (err ~kind:"pipeline-mismatch"
         (Printf.sprintf "plan claims %d stages, pipeline has %d" ir.Pmdp_plan.n_stages n));
  let partition ?group ?stage detail = add (err ~kind:"partition" ?group ?stage detail) in
  let count = Array.make n 0 in
  Array.iteri
    (fun gi (g : Pmdp_plan.group) ->
      Array.iter
        (fun (m : Pmdp_plan.member) ->
          if m.Pmdp_plan.sid < 0 || m.Pmdp_plan.sid >= n then
            partition ~group:gi
              (Printf.sprintf "stage id %d out of range [0, %d)" m.Pmdp_plan.sid n)
          else count.(m.Pmdp_plan.sid) <- count.(m.Pmdp_plan.sid) + 1)
        g.Pmdp_plan.members)
    ir.Pmdp_plan.groups;
  Array.iteri
    (fun sid c ->
      let stage = stage_name p sid in
      if c = 0 then partition ~stage "stage missing from the plan"
      else if c > 1 then partition ~stage (Printf.sprintf "stage appears in %d groups" c))
    count;
  (* The liveouts list is what the executor returns and the service
     reports; it must agree with the member flags, and every pipeline
     output must be materialized somewhere. *)
  let from_members =
    List.concat_map
      (fun (g : Pmdp_plan.group) ->
        List.filter_map
          (fun (m : Pmdp_plan.member) ->
            if m.Pmdp_plan.liveout then Some m.Pmdp_plan.name else None)
          (Array.to_list g.Pmdp_plan.members))
      (Array.to_list ir.Pmdp_plan.groups)
  in
  if from_members <> ir.Pmdp_plan.liveouts then
    add
      (err ~kind:"liveout-list"
         (Printf.sprintf "plan lists live-outs [%s] but member flags give [%s]"
            (String.concat "; " ir.Pmdp_plan.liveouts)
            (String.concat "; " from_members)));
  List.iter
    (fun o ->
      let name = (Pipeline.stage p o).Stage.name in
      if not (List.mem name from_members) then
        add (err ~kind:"output-not-liveout" ~stage:name "pipeline output is not materialized"))
    p.Pipeline.outputs;
  List.rev !diags

(* --- per-group checks over a reconstructed analysis ----------------- *)

(* Tile-coverage and bounds soundness: the tile grid must cover the
   group's scaled hull, and — since copy-out writes each member's
   exact per-tile box [ceil(tlo/s), floor(thi/s)] — the hull's image
   under that rounding must cover every member's own domain.  Tiles
   are disjoint contiguous intervals, so their rounded images are
   disjoint too: together these prove every output point is written
   exactly once. *)
let coverage_diags gi (g : Pmdp_plan.group) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  for d = 0 to g.Pmdp_plan.n_dims - 1 do
    let extent = g.Pmdp_plan.dim_hi.(d) - g.Pmdp_plan.dim_lo.(d) + 1 in
    let expect = (extent + g.Pmdp_plan.tile.(d) - 1) / g.Pmdp_plan.tile.(d) in
    if g.Pmdp_plan.tiles_per_dim.(d) <> expect then
      add
        (err ~kind:"tile-count" ~group:gi ~dim:d
           (Printf.sprintf "%d tiles of width %d over extent %d; %d needed"
              g.Pmdp_plan.tiles_per_dim.(d) g.Pmdp_plan.tile.(d) extent expect))
  done;
  let n_tiles = Array.fold_left ( * ) 1 g.Pmdp_plan.tiles_per_dim in
  if g.Pmdp_plan.n_tiles <> n_tiles then
    add
      (err ~kind:"tile-count" ~group:gi
         (Printf.sprintf "plan claims %d tiles, tile grid has %d" g.Pmdp_plan.n_tiles n_tiles));
  Array.iteri
    (fun m (mir : Pmdp_plan.member) ->
      (* hull envelope: group dims must span every member's scaled domain *)
      for d = 0 to g.Pmdp_plan.n_dims - 1 do
        if
          g.Pmdp_plan.scaled_lo.(m).(d) < g.Pmdp_plan.dim_lo.(d)
          || g.Pmdp_plan.scaled_hi.(m).(d) > g.Pmdp_plan.dim_hi.(d)
        then
          add
            (err ~kind:"hull" ~group:gi ~stage:mir.Pmdp_plan.name ~dim:d
               (Printf.sprintf "member's scaled domain [%d, %d] escapes group hull [%d, %d]"
                  g.Pmdp_plan.scaled_lo.(m).(d) g.Pmdp_plan.scaled_hi.(m).(d)
                  g.Pmdp_plan.dim_lo.(d) g.Pmdp_plan.dim_hi.(d)))
      done;
      if mir.Pmdp_plan.liveout then
        Array.iteri
          (fun k (lo, extent) ->
            let d = g.Pmdp_plan.dim_of_stage.(m).(k) in
            let s = g.Pmdp_plan.scales.(m).(d) in
            let covered_lo = ceil_div g.Pmdp_plan.dim_lo.(d) s
            and covered_hi = floor_div g.Pmdp_plan.dim_hi.(d) s in
            if covered_lo > lo || covered_hi < lo + extent - 1 then
              add
                (err ~kind:"coverage-gap" ~group:gi ~stage:mir.Pmdp_plan.name ~dim:k
                   (Printf.sprintf
                      "tiles copy out points [%d, %d] of a live-out whose domain is [%d, %d]"
                      covered_lo covered_hi lo (lo + extent - 1))))
          mir.Pmdp_plan.dims)
    g.Pmdp_plan.members;
  List.rev !diags

(* Scratch-extent consistency: the IR's claimed extents must equal the
   interpreter's arena-sizing formula and dominate the C backend's
   stack allocation, and the claimed arena sizes must follow. *)
let scratch_diags gi (g : Pmdp_plan.group) (ga : GA.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let tile = g.Pmdp_plan.tile in
  Array.iteri
    (fun m (mir : Pmdp_plan.member) ->
      let interp = Pmdp_exec.Tiled_exec.member_scratch_extents ga ~member:m ~tile in
      if mir.Pmdp_plan.scratch_extents <> interp then
        add
          (err ~kind:"scratch-extent" ~group:gi ~stage:mir.Pmdp_plan.name
             (Printf.sprintf "plan claims scratch extents [%s], executor formula gives [%s]"
                (String.concat "x"
                   (Array.to_list (Array.map string_of_int mir.Pmdp_plan.scratch_extents)))
                (String.concat "x" (Array.to_list (Array.map string_of_int interp)))));
      let cgen = Pmdp_codegen.C_emit.scratch_alloc_extents ga ~member:m ~tile in
      Array.iteri
        (fun k c ->
          if k < Array.length mir.Pmdp_plan.scratch_extents && c > mir.Pmdp_plan.scratch_extents.(k)
          then
            add
              (err ~kind:"scratch-extent" ~group:gi ~stage:mir.Pmdp_plan.name ~dim:k
                 (Printf.sprintf
                    "C backend allocates %d elements along dim %d, plan claims only %d" c k
                    mir.Pmdp_plan.scratch_extents.(k))))
        cgen;
      (* re-derive the direct flag the way the executor does *)
      let stage = Pipeline.stage ga.GA.pipeline mir.Pmdp_plan.sid in
      let direct = ref mir.Pmdp_plan.liveout in
      for k = 0 to Stage.ndims stage - 1 do
        let d = ga.GA.dim_of_stage.(m).(k) in
        let s = ga.GA.scales.(m).(d) in
        if
          ga.GA.expansions.(m).(d) <> (0, 0)
          || s <> 1
          || ga.GA.scaled_lo.(m).(d) <> ga.GA.dim_lo.(d)
          || ga.GA.scaled_hi.(m).(d) <> ga.GA.dim_hi.(d)
        then direct := false
      done;
      for d = 0 to ga.GA.n_dims - 1 do
        if ga.GA.expansions.(m).(d) <> (0, 0) then direct := false
      done;
      if mir.Pmdp_plan.direct <> !direct then
        add
          (err ~kind:"direct-flag" ~group:gi ~stage:mir.Pmdp_plan.name
             (Printf.sprintf "plan marks the member direct=%b, executor derives %b"
                mir.Pmdp_plan.direct !direct));
      let expect =
        if mir.Pmdp_plan.direct then 0
        else Array.fold_left ( * ) 1 mir.Pmdp_plan.scratch_extents
      in
      if mir.Pmdp_plan.max_scratch <> expect then
        add
          (err ~kind:"scratch-size" ~group:gi ~stage:mir.Pmdp_plan.name
             (Printf.sprintf "plan claims a %d-element arena, extents give %d"
                mir.Pmdp_plan.max_scratch expect)))
    g.Pmdp_plan.members;
  List.rev !diags

(* Dependence/race audit at the lowered level: within a group, every
   producer edge must point forward in member order (scratch is filled
   before it is read); across groups, producers must run in an earlier
   group and be materialized. *)
let dependence_diags p group_of liveout_of gi (g : Pmdp_plan.group) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let n = Array.length g.Pmdp_plan.members in
  Array.iter
    (fun (e : Pmdp_plan.edge) ->
      if e.Pmdp_plan.e_producer >= e.Pmdp_plan.e_consumer then
        add
          (err ~kind:"dependence" ~group:gi
             ~stage:g.Pmdp_plan.members.(min e.Pmdp_plan.e_consumer (n - 1)).Pmdp_plan.name
             (Printf.sprintf
                "edge %d -> %d does not point forward in member order: consumer would read \
                 unwritten scratch"
                e.Pmdp_plan.e_producer e.Pmdp_plan.e_consumer));
      Array.iteri
        (fun d (lo, hi) ->
          if lo > hi then
            add
              (err ~kind:"hull" ~group:gi ~dim:d
                 (Printf.sprintf "edge %d -> %d has empty dependence hull [%d, %d]"
                    e.Pmdp_plan.e_producer e.Pmdp_plan.e_consumer lo hi)))
        e.Pmdp_plan.hull)
    g.Pmdp_plan.edges;
  Array.iteri
    (fun ci (mir : Pmdp_plan.member) ->
      List.iter
        (fun prod ->
          match group_of.(prod) with
          | None -> () (* already a partition error *)
          | Some gp when gp = gi ->
              let pi =
                let r = ref (-1) in
                Array.iteri
                  (fun m (x : Pmdp_plan.member) -> if x.Pmdp_plan.sid = prod then r := m)
                  g.Pmdp_plan.members;
                !r
              in
              if
                pi >= 0
                && not
                     (Array.exists
                        (fun (e : Pmdp_plan.edge) ->
                          e.Pmdp_plan.e_producer = pi && e.Pmdp_plan.e_consumer = ci)
                        g.Pmdp_plan.edges)
              then
                add
                  (err ~kind:"dependence" ~group:gi ~stage:mir.Pmdp_plan.name
                     (Printf.sprintf "no dependence edge for in-group producer %s"
                        (Pipeline.stage p prod).Stage.name))
          | Some gp ->
              let pname = (Pipeline.stage p prod).Stage.name in
              if gp > gi then
                add
                  (err ~kind:"group-order" ~group:gi ~stage:mir.Pmdp_plan.name
                     (Printf.sprintf "consumes %s, scheduled in later group %d" pname gp));
              if not liveout_of.(prod) then
                add
                  (err ~kind:"not-materialized" ~group:gi ~stage:mir.Pmdp_plan.name
                     (Printf.sprintf
                        "consumes %s from group %d, which never materializes it" pname gp)))
        (Pipeline.producers p mir.Pmdp_plan.sid))
    g.Pmdp_plan.members;
  List.rev !diags

(* --- exact dependence re-derivation --------------------------------- *)

(* One in-group access, resolved to local member indices. *)
type access = { pi : int; ci : int; coords : Expr.coord array }

let group_accesses p (ga : GA.t) =
  let local = Hashtbl.create 16 in
  Array.iteri (fun i sid -> Hashtbl.add local sid i) ga.GA.members;
  let acc = ref [] in
  Array.iteri
    (fun ci sid ->
      List.iter
        (fun prod ->
          match Hashtbl.find_opt local prod with
          | None -> ()
          | Some pi ->
              List.iter
                (fun coords -> acc := { pi; ci; coords } :: !acc)
                (Pipeline.loads_between p ~consumer:sid ~producer:prod))
        (Pipeline.producers p sid))
    ga.GA.members;
  List.rev !acc

(* Legality of the overlapped tiling (paper §2.1): re-derive, from the
   DSL access functions alone, the right-alignment, the scaling
   consistency, the exact scaled-space dependence offsets (by
   exhaustive residue sampling rather than the analytic interval
   formula of Group_analysis) and the overlap expansions they force,
   and check the plan's recorded hulls and expansions cover them.  Any
   disagreement means lowering and this re-derivation differ — exactly
   the class of silent scheduler bug the paper's Alg. 2 line 2 assumes
   away. *)
let legality_diags p gi (ga : GA.t) ~tile =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let n = Array.length ga.GA.members in
  let gdims = ga.GA.n_dims in
  let name m = stage_name p ga.GA.members.(m) in
  (* Exact dependence hulls per (producer, consumer) edge, built from
     residue-sampled offsets; used below to re-derive the expansions. *)
  let exact_hulls : (int * int, (int * int) array) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun { pi; ci; coords } ->
      let cstage = Pipeline.stage p ga.GA.members.(ci) in
      let pstage = Pipeline.stage p ga.GA.members.(pi) in
      let cnd = Stage.ndims cstage and pnd = Stage.ndims pstage in
      (* Offsets this one access realizes, per group dim; [None] means
         the access does not move along that dim (offset 0). *)
      let offs : (int * int) option array = Array.make gdims None in
      Array.iteri
        (fun dp coord ->
          match coord with
          | Expr.Cdyn _ ->
              add
                (err ~kind:"analysis-disagreement" ~group:gi ~stage:(name ci)
                   (Printf.sprintf "plan fuses a dynamic access to %s" (name pi)))
          | Expr.Cvar { var = dc; scale = a; offset = b } ->
              if dc >= cnd then
                add
                  (err ~kind:"analysis-disagreement" ~group:gi ~stage:(name ci)
                     (Printf.sprintf "plan fuses a reduction-variable access to %s" (name pi)))
              else begin
                let g_c = Affine.right_align ~gdims ~ndims:cnd dc in
                let g_p = Affine.right_align ~gdims ~ndims:pnd dp in
                if g_c <> g_p then
                  add
                    (err ~kind:"alignment" ~group:gi ~stage:(name ci) ~dim:g_c
                       (Printf.sprintf
                          "access to %s maps consumer dim %d to group dim %d but producer dim %d to %d"
                          (name pi) dc g_c dp g_p))
                else begin
                  let s_c = ga.GA.scales.(ci).(g_c) and s_p = ga.GA.scales.(pi).(g_p) in
                  if not (Rational.equal (Rational.of_int s_c) (Rational.mul a (Rational.of_int s_p)))
                  then
                    add
                      (err ~kind:"scale-mismatch" ~group:gi ~stage:(name ci) ~dim:g_c
                         (Printf.sprintf "access to %s with factor %s: %d <> %s * %d" (name pi)
                            (Rational.to_string a) s_c (Rational.to_string a) s_p))
                  else begin
                    let clo, chi = Affine.var_domain cstage dc in
                    let olo, ohi = Affine.exact_offsets ~s_p ~s_c ~a ~b ~clo ~chi in
                    (* the plan's per-edge hull must cover every offset
                       the access can actually realize; a missing edge
                       is a [dependence] error *)
                    Option.iter
                      (fun (e : GA.edge) ->
                        let hlo, hhi = e.GA.hull.(g_c) in
                        if olo < hlo || ohi > hhi then
                          add
                            (err ~kind:"dependence-hull" ~group:gi ~stage:(name ci) ~dim:g_c
                               (Printf.sprintf
                                  "exact offsets [%d, %d] of access to %s escape the plan's hull [%d, %d]"
                                  olo ohi (name pi) hlo hhi)))
                      (List.find_opt
                         (fun (e : GA.edge) -> e.GA.e_producer = pi && e.GA.e_consumer = ci)
                         ga.GA.edges);
                    offs.(g_c) <-
                      (match offs.(g_c) with
                      | None -> Some (olo, ohi)
                      | Some (lo, hi) -> Some (min lo olo, max hi ohi))
                  end
                end
              end)
        coords;
      (* Merge this access into the edge's exact hull: per-dim min/max
         over accesses, exactly as the analysis builds its hulls. *)
      let this = Array.map (Option.value ~default:(0, 0)) offs in
      match Hashtbl.find_opt exact_hulls (pi, ci) with
      | None -> Hashtbl.add exact_hulls (pi, ci) this
      | Some hull ->
          Array.iteri
            (fun d (olo, ohi) ->
              let lo, hi = hull.(d) in
              hull.(d) <- (min lo olo, max hi ohi))
            this)
    (group_accesses p ga);
  (* Expansion soundness: re-accumulate the overlap each producer
     needs so that every in-group consumer's (plan-sized) region finds
     its reads locally, using the exact hulls; the plan's expansions
     must dominate them. *)
  let required = Array.init n (fun _ -> Array.make gdims (0, 0)) in
  for mi = n - 1 downto 0 do
    Hashtbl.iter
      (fun (pi, ci) hull ->
        if pi = mi then
          for d = 0 to gdims - 1 do
            let off_lo, off_hi = hull.(d) in
            let c_lo, c_hi = ga.GA.expansions.(ci).(d) in
            let r_lo, r_hi = required.(mi).(d) in
            required.(mi).(d) <-
              (max r_lo (max 0 (c_lo - off_lo)), max r_hi (max 0 (c_hi + off_hi)))
          done)
      exact_hulls
  done;
  for m = 0 to n - 1 do
    for d = 0 to gdims - 1 do
      let elo, ehi = ga.GA.expansions.(m).(d) in
      if elo < 0 || ehi < 0 then
        add
          (err ~kind:"expansion" ~group:gi ~stage:(name m) ~dim:d
             (Printf.sprintf "negative overlap expansion (%d, %d)" elo ehi));
      let r_lo, r_hi = required.(m).(d) in
      if elo < r_lo || ehi < r_hi then
        add
          (err ~kind:"expansion" ~group:gi ~stage:(name m) ~dim:d
             (Printf.sprintf "plan expansion (%d, %d) does not cover required overlap (%d, %d)"
                elo ehi r_lo r_hi))
    done
  done;
  (* Degenerate overlap trapezoids: correct, but each tile recomputes
     more than it produces. *)
  for m = 0 to n - 1 do
    for d = 0 to gdims - 1 do
      let elo, ehi = ga.GA.expansions.(m).(d) in
      let n_tiles = (GA.dim_extent ga d + tile.(d) - 1) / tile.(d) in
      if n_tiles > 1 && elo + ehi > 0 && elo + ehi >= tile.(d) then
        add
          (warn ~kind:"degenerate-overlap" ~group:gi ~stage:(name m) ~dim:d
             (Printf.sprintf
                "overlap %d+%d is at least the tile width %d: each tile recomputes more than it produces"
                elo ehi tile.(d)))
    done
  done;
  List.rev !diags

(* --- per-tile bounds proofs ------------------------------------------ *)

(* A read whose index interval never meets the producer's domain can
   only observe boundary-clamped values: flag it.  Partial overshoot
   is the normal stencil-boundary case and is not flagged. *)
let domain_diags p gi (ga : GA.t) =
  let diags = ref [] in
  Array.iter
    (fun sid ->
      let cstage = Pipeline.stage p sid in
      List.iter
        (fun prod ->
          let pstage = Pipeline.stage p prod in
          List.iter
            (fun (coords : Expr.coord array) ->
              Array.iteri
                (fun dp coord ->
                  match coord with
                  | Expr.Cdyn _ -> ()
                  | Expr.Cvar { var; scale = a; offset = b } -> (
                      match Affine.var_domain cstage var with
                      | exception Invalid_argument _ -> ()
                      | clo, chi ->
                          let ilo, ihi = Affine.index_interval ~a ~b ~clo ~chi in
                          let d = pstage.Stage.dims.(dp) in
                          let dlo = d.Stage.lo and dhi = d.Stage.lo + d.Stage.extent - 1 in
                          if ihi < dlo || ilo > dhi then
                            diags :=
                              err ~kind:"out-of-domain" ~group:gi ~stage:cstage.Stage.name ~dim:dp
                                (Printf.sprintf
                                   "reads %s at indices [%d, %d], entirely outside its domain [%d, %d]"
                                   pstage.Stage.name ilo ihi dlo dhi)
                              :: !diags))
                coords)
            (Pipeline.loads_between p ~consumer:sid ~producer:prod))
        (Pipeline.producers p sid))
    ga.GA.members;
  List.rev !diags

(* Exact per-tile interval model of the executor, per group dimension.

   The executors compute each member over the box
   [floor((tlo-elo)/s), ceil((thi+ehi)/s)] (clamped to the domain);
   edge points of that box may be garbage — their own reads can fall
   outside what the tile computed — but the copy-out takes only the
   exact tile points [ceil(tlo/s), floor(thi/s)].  So the invariant
   that must hold is: every copied-out point is *provably correct*,
   where a point is correct iff every in-group read it issues lands in
   the producer's correct sub-interval.  We compute that correct
   sub-interval exactly, member by member in execution order:

     correct(m) = computed-box(m) ∩ { c | forall reads (a,b) of p:
                                          floor(a*c+b) ∈ correct(p) }

   Since each access maps one consumer var to one producer dim, the
   model decomposes exactly per group dimension, and the inverse image
   of an interval under c ↦ floor(a*c+b) is an interval.

   Reads are border-clamped: {!Compile.read} clamps each index into
   the view's own box, and the reference executor clamps into the full
   domain.  An out-of-region read therefore still matches the
   reference when the region's edge coincides with the domain's edge
   (both clamp to the same point) and that edge point is itself
   correct — which is how tile 0 of a stencil stays exact at the
   image border. *)
let containment_diags p gi (ga : GA.t) ~tile =
  let diags = ref [] in
  let gdims = ga.GA.n_dims in
  let n = Array.length ga.GA.members in
  (* In-group reads per consumer member per group dim, as
     (producer, a.num, a.den, b.num, b.den) of c ↦ floor(a*c+b): the
     tile walk below then runs on integers and allocates nothing. *)
  let reads = Array.init n (fun _ -> Array.make gdims []) in
  let misordered = Hashtbl.create 4 in
  List.iter
    (fun { pi; ci; coords } ->
      let cname = stage_name p ga.GA.members.(ci) in
      if pi >= ci then begin
        (* run_tile resolves producer views by member order; a
           producer at or after its consumer has no view yet *)
        if not (Hashtbl.mem misordered (pi, ci)) then begin
          Hashtbl.add misordered (pi, ci) ();
          diags :=
            err ~kind:"member-order" ~group:gi ~stage:cname
              (Printf.sprintf "in-group producer %s is not computed before its consumer"
                 (stage_name p ga.GA.members.(pi)))
            :: !diags
        end
      end
      else
        let cnd = Stage.ndims (Pipeline.stage p ga.GA.members.(ci))
        and pnd = Stage.ndims (Pipeline.stage p ga.GA.members.(pi)) in
        Array.iteri
          (fun dp coord ->
            match coord with
            | Expr.Cdyn _ -> ()
            | Expr.Cvar { var = dc; scale = a; offset = b } ->
                let g = Affine.right_align ~gdims ~ndims:cnd dc in
                if dc < cnd && g = Affine.right_align ~gdims ~ndims:pnd dp then
                  reads.(ci).(g) <-
                    (pi, a.Rational.num, a.Rational.den, b.Rational.num, b.Rational.den)
                    :: reads.(ci).(g))
          coords)
    (group_accesses p ga);
  if Hashtbl.length misordered = 0 then begin
    let neg_inf = min_int / 2 and pos_inf = max_int / 2 in
    (* Per-member state of the current tile: computed region, domain,
       and provably-correct interval ([neg_inf, pos_inf] for a member
       that does not span the dimension). *)
    let rlo = Array.make n neg_inf and rhi = Array.make n pos_inf in
    let dlo = Array.make n neg_inf and dhi = Array.make n pos_inf in
    let clo = Array.make n neg_inf and chi = Array.make n pos_inf in
    for g = 0 to gdims - 1 do
      let spans =
        Array.init n (fun m ->
            let stage = Pipeline.stage p ga.GA.members.(m) in
            let k = g - (gdims - Stage.ndims stage) in
            if k >= 0 && k < Stage.ndims stage then Some stage.Stage.dims.(k) else None)
      in
      let reads_g = Array.init n (fun m -> Array.of_list reads.(m).(g)) in
      let n_tiles = (GA.dim_extent ga g + tile.(g) - 1) / tile.(g) in
      let reported = Array.make n false in
      for t = 0 to n_tiles - 1 do
        let tlo = ga.GA.dim_lo.(g) + (t * tile.(g)) in
        let thi = min (tlo + tile.(g) - 1) ga.GA.dim_hi.(g) in
        for mi = 0 to n - 1 do
          match spans.(mi) with
          | None ->
              rlo.(mi) <- neg_inf;
              rhi.(mi) <- pos_inf;
              dlo.(mi) <- neg_inf;
              dhi.(mi) <- pos_inf;
              clo.(mi) <- neg_inf;
              chi.(mi) <- pos_inf
          | Some d ->
              let s = ga.GA.scales.(mi).(g) in
              let elo, ehi = ga.GA.expansions.(mi).(g) in
              let mdlo = d.Stage.lo and mdhi = d.Stage.lo + d.Stage.extent - 1 in
              dlo.(mi) <- mdlo;
              dhi.(mi) <- mdhi;
              rlo.(mi) <- clamp (floor_div (tlo - elo) s) mdlo mdhi;
              rhi.(mi) <- clamp (ceil_div (thi + ehi) s) mdlo mdhi;
              let lo = ref rlo.(mi) and hi = ref rhi.(mi) in
              let rd = reads_g.(mi) in
              for j = 0 to Array.length rd - 1 do
                let pi, an, ad, bn, bd = rd.(j) in
                let plo = clo.(pi) and phi = chi.(pi) in
                (* A read at y < region-lo clamps to region-lo; the
                   reference clamps to domain-lo.  They agree (and
                   are correct) only when region-lo = domain-lo and
                   that point is itself correct — then any y below
                   is fine.  Symmetrically above. *)
                let l =
                  if rlo.(pi) = dlo.(pi) && plo <= rlo.(pi) && rlo.(pi) <= phi then neg_inf
                  else plo
                and u =
                  if rhi.(pi) = dhi.(pi) && plo <= rhi.(pi) && rhi.(pi) <= phi then pos_inf
                  else phi
                in
                (* With a = an/ad and b = bn/bd (ad, bd > 0):
                   floor(a*c+b) >= l  <=>  an*bd*c >= (l*bd - bn)*ad
                   floor(a*c+b) <= u  <=>  an*bd*c <  ((u+1)*bd - bn)*ad *)
                let q = an * bd in
                let at_l = ((l * bd) - bn) * ad and at_u = (((u + 1) * bd) - bn) * ad in
                if an > 0 then begin
                  (if l > neg_inf then
                     let c = ceil_div at_l q in
                     if c > !lo then lo := c);
                  if u < pos_inf then
                    let c = ceil_div at_u q - 1 in
                    if c < !hi then hi := c
                end
                else if an < 0 then begin
                  (if u < pos_inf then
                     let c = floor_div (-at_u) (-q) + 1 in
                     if c > !lo then lo := c);
                  if l > neg_inf then
                    let c = floor_div (-at_l) (-q) in
                    if c < !hi then hi := c
                end
                else
                  let v = floor_div bn bd in
                  if v < l || v > u then hi := !lo - 1
              done;
              clo.(mi) <- !lo;
              chi.(mi) <- !hi;
              if ga.GA.liveouts.(mi) && not reported.(mi) then begin
                let exact_lo = max mdlo (ceil_div tlo s)
                and exact_hi = min mdhi (floor_div thi s) in
                if exact_lo <= exact_hi && not (!lo <= exact_lo && exact_hi <= !hi) then begin
                  reported.(mi) <- true;
                  diags :=
                    err ~kind:"region-containment" ~group:gi ~stage:(stage_name p ga.GA.members.(mi))
                      ~dim:g
                      (Printf.sprintf
                         "tile %d: copied-out points [%d, %d] exceed the provably-correct region [%d, %d]"
                         t exact_lo exact_hi !lo !hi)
                    :: !diags
                end
              end
        done
      done
    done
  end;
  List.rev !diags

(* The largest per-tile region extent of each member, per own dim,
   must fit both executors' scratch allocations, for every tile
   position: the emitted [double scr[N]] never overflows. *)
let overflow_diags p gi (ga : GA.t) ~tile =
  let diags = ref [] in
  Array.iteri
    (fun m sid ->
      let stage = Pipeline.stage p sid in
      let exec_alloc = Pmdp_exec.Tiled_exec.member_scratch_extents ga ~member:m ~tile in
      let c_alloc = Pmdp_codegen.C_emit.scratch_alloc_extents ga ~member:m ~tile in
      for k = 0 to Stage.ndims stage - 1 do
        let g = ga.GA.dim_of_stage.(m).(k) in
        let s = ga.GA.scales.(m).(g) in
        let elo, ehi = ga.GA.expansions.(m).(g) in
        let d = stage.Stage.dims.(k) in
        let dlo = d.Stage.lo and dhi = d.Stage.lo + d.Stage.extent - 1 in
        let n_tiles = (GA.dim_extent ga g + tile.(g) - 1) / tile.(g) in
        let widest = ref 0 in
        for t = 0 to n_tiles - 1 do
          let tlo = ga.GA.dim_lo.(g) + (t * tile.(g)) in
          let thi = min (tlo + tile.(g) - 1) ga.GA.dim_hi.(g) in
          let lo = clamp (floor_div (tlo - elo) s) dlo dhi in
          let hi = clamp (ceil_div (thi + ehi) s) dlo dhi in
          if hi - lo + 1 > !widest then widest := hi - lo + 1
        done;
        List.iter
          (fun (alloc, what) ->
            if !widest > alloc.(k) then
              diags :=
                err ~kind:"scratch-overflow" ~group:gi ~stage:stage.Stage.name ~dim:k
                  (Printf.sprintf "region extent %d exceeds the %s scratch allocation %d" !widest
                     what alloc.(k))
                :: !diags)
          [ (exec_alloc, "runtime arena"); (c_alloc, "generated C") ]
      done)
    ga.GA.members;
  List.rev !diags

let bounds_diags p gi ga ~tile =
  domain_diags p gi ga @ containment_diags p gi ga ~tile @ overflow_diags p gi ga ~tile

(* Static memory-budget audit: recompute the two admission inputs from
   first principles and, when a budget is given, apply the service's
   admission formula (working set + per-worker scratch x workers). *)
let budget_diags ?budget ?(workers = 1) (ir : Pmdp_plan.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let ws =
    Array.fold_left
      (fun acc (g : Pmdp_plan.group) ->
        Array.fold_left
          (fun acc (m : Pmdp_plan.member) ->
            if m.Pmdp_plan.liveout then
              acc + (Array.fold_left (fun n (_, e) -> n * e) 1 m.Pmdp_plan.dims * 8)
            else acc)
          acc g.Pmdp_plan.members)
      0 ir.Pmdp_plan.groups
  in
  if ir.Pmdp_plan.working_set_bytes <> ws then
    add
      (err ~kind:"working-set"
         (Printf.sprintf "plan claims %d working-set bytes, live-out buffers total %d"
            ir.Pmdp_plan.working_set_bytes ws));
  let scratch =
    Array.fold_left
      (fun acc (g : Pmdp_plan.group) ->
        max acc
          (Array.fold_left
             (fun acc (m : Pmdp_plan.member) ->
               if m.Pmdp_plan.direct then acc else acc + (m.Pmdp_plan.max_scratch * 8))
             0 g.Pmdp_plan.members))
      0 ir.Pmdp_plan.groups
  in
  if ir.Pmdp_plan.scratch_bytes_per_worker <> scratch then
    add
      (err ~kind:"scratch-budget"
         (Printf.sprintf "plan claims %d scratch bytes per worker, arenas total %d"
            ir.Pmdp_plan.scratch_bytes_per_worker scratch));
  (match budget with
  | None -> ()
  | Some b ->
      let est = ws + (scratch * workers) in
      if est > b then
        add
          (err ~kind:"over-budget"
             (Printf.sprintf
                "estimated footprint %d bytes (%d working set + %d scratch x %d workers) \
                 exceeds budget %d"
                est ws scratch workers b)));
  List.rev !diags

(* Lints: performance pathologies that execute correctly. *)
let lint_diags gi (g : Pmdp_plan.group) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let nd = g.Pmdp_plan.n_dims in
  for d = 0 to nd - 1 do
    let extent = g.Pmdp_plan.dim_hi.(d) - g.Pmdp_plan.dim_lo.(d) + 1 in
    if d = nd - 1 && g.Pmdp_plan.tile.(d) = 1 && extent > 1 then
      add
        (warn ~kind:"one-wide-innermost" ~group:gi ~dim:d
           (Printf.sprintf
              "tile is 1 wide along the innermost dimension (extent %d): no spatial locality \
               or vectorization"
              extent));
    if g.Pmdp_plan.tile.(d) > extent then
      add
        (warn ~kind:"tile-oversized" ~group:gi ~dim:d
           (Printf.sprintf "tile size %d exceeds iteration extent %d" g.Pmdp_plan.tile.(d) extent))
  done;
  (* Dead scratch: a non-live-out member no in-group edge consumes
     fills an arena nothing ever reads. *)
  Array.iteri
    (fun m (mir : Pmdp_plan.member) ->
      if
        (not mir.Pmdp_plan.liveout)
        && not
             (Array.exists
                (fun (e : Pmdp_plan.edge) -> e.Pmdp_plan.e_producer = m)
                g.Pmdp_plan.edges)
      then
        add
          (warn ~kind:"dead-scratch" ~group:gi ~stage:mir.Pmdp_plan.name
             "scratch member has no in-group consumer; its arena is written but never read"))
    g.Pmdp_plan.members;
  List.rev !diags

let check ?budget ?workers p (ir : Pmdp_plan.t) =
  let structure = structure_diags p ir in
  let n = Pipeline.n_stages p in
  let group_of = Array.make n None and liveout_of = Array.make n false in
  Array.iteri
    (fun gi (g : Pmdp_plan.group) ->
      Array.iter
        (fun (m : Pmdp_plan.member) ->
          if m.Pmdp_plan.sid >= 0 && m.Pmdp_plan.sid < n then begin
            group_of.(m.Pmdp_plan.sid) <- Some gi;
            if m.Pmdp_plan.liveout then liveout_of.(m.Pmdp_plan.sid) <- true
          end)
        g.Pmdp_plan.members)
    ir.Pmdp_plan.groups;
  let per_group =
    List.concat
      (List.mapi
         (fun gi (g : Pmdp_plan.group) ->
           match Pmdp_plan.group_analysis p g with
           | exception Pmdp_error.Error (Pmdp_error.Plan_invalid { reason; _ }) ->
               [ err ~kind:"structure" ~group:gi reason ]
           | ga ->
               coverage_diags gi g
               @ scratch_diags gi g ga
               @ dependence_diags p group_of liveout_of gi g
               @ legality_diags p gi ga ~tile:g.Pmdp_plan.tile
               @ bounds_diags p gi ga ~tile:g.Pmdp_plan.tile
               @ lint_diags gi g)
         (Array.to_list ir.Pmdp_plan.groups))
  in
  structure @ per_group @ budget_diags ?budget ?workers ir

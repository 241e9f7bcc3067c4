module Pipeline = Pmdp_dsl.Pipeline
module Stage = Pmdp_dsl.Stage
module Group_analysis = Pmdp_analysis.Group_analysis
module Footprint = Pmdp_analysis.Footprint
module Schedule_spec = Pmdp_core.Schedule_spec
module Pmdp_error = Pmdp_util.Pmdp_error
module Json = Pmdp_report.Json

type member = {
  sid : int;
  name : string;
  dims : (int * int) array;
  liveout : bool;
  direct : bool;
  scratch_extents : int array;
  max_scratch : int;
}

type edge = { e_producer : int; e_consumer : int; hull : (int * int) array }

type group = {
  members : member array;
  tile : int array;
  tiles_per_dim : int array;
  n_tiles : int;
  n_dims : int;
  scales : int array array;
  dim_of_stage : int array array;
  scaled_lo : int array array;
  scaled_hi : int array array;
  dim_lo : int array;
  dim_hi : int array;
  expansions : (int * int) array array;
  edges : edge array;
}

type t = {
  version : int;
  pipeline : string;
  n_stages : int;
  groups : group array;
  liveouts : string list;
  working_set_bytes : int;
  scratch_bytes_per_worker : int;
}

let version = 1

(* The one scratch-sizing formula: widest possible clamped region of a
   member along each own dimension, for any tile position.  The
   interpreted executor's arena, the emitted C's stack allocation, and
   the static checker all agree with this by construction or by
   cross-check. *)
let member_scratch_extents (ga : Group_analysis.t) ~member:m ~tile =
  let stage = Pipeline.stage ga.Group_analysis.pipeline ga.Group_analysis.members.(m) in
  Array.init (Stage.ndims stage) (fun k ->
      let g = ga.Group_analysis.dim_of_stage.(m).(k) in
      let s = ga.Group_analysis.scales.(m).(g) in
      let elo, ehi = ga.Group_analysis.expansions.(m).(g) in
      let widest = ((tile.(g) + elo + ehi + s - 1) / s) + 2 in
      min stage.Stage.dims.(k).Stage.extent (max 1 widest))

(* ------------------------------------------------------------------ *)
(* Lowering: schedule spec -> IR (the analysis half of the old
   Tiled_exec.plan, minus closure compilation). *)

let lower_group p (g : Schedule_spec.group) =
  let ga =
    match Group_analysis.analyze p g.Schedule_spec.stages with
    | Ok ga -> ga
    | Error f ->
        Pmdp_error.raise_
          (Pmdp_error.Plan_invalid
             {
               context = "Pmdp_plan.of_spec";
               reason = Format.asprintf "group failed analysis: %a" Group_analysis.pp_failure f;
             })
  in
  if Array.length g.Schedule_spec.tile_sizes <> ga.Group_analysis.n_dims then
    Pmdp_error.raise_
      (Pmdp_error.Arity_mismatch
         {
           context = "Pmdp_plan.of_spec: tile sizes";
           expected = ga.Group_analysis.n_dims;
           got = Array.length g.Schedule_spec.tile_sizes;
         });
  (* Refused rather than clamped: the plan would no longer say what
     the schedule asked for, and the static analyzer only sees plans. *)
  Array.iteri
    (fun d ts ->
      let extent = Group_analysis.dim_extent ga d in
      if ts > extent then
        Pmdp_error.raise_
          (Pmdp_error.Plan_invalid
             {
               context = "Pmdp_plan.of_spec";
               reason =
                 Printf.sprintf
                   "tile-exceeds-extent: tile size %d exceeds scaled extent %d along dim %d" ts
                   extent d;
             }))
    g.Schedule_spec.tile_sizes;
  let tile = Array.copy g.Schedule_spec.tile_sizes in
  let tiles_per_dim =
    Array.init ga.Group_analysis.n_dims (fun d ->
        let extent = Group_analysis.dim_extent ga d in
        (extent + tile.(d) - 1) / tile.(d))
  in
  let n_tiles = Array.fold_left ( * ) 1 tiles_per_dim in
  let members =
    Array.mapi
      (fun m sid ->
        let stage = Pipeline.stage p sid in
        let own_nd = Stage.ndims stage in
        let liveout = ga.Group_analysis.liveouts.(m) in
        (* A member is "direct" — writes straight to its full buffer —
           when its region is always exactly the tile box: no overlap
           expansion, unit scale, and a domain equal to the group
           hull.  Mirrors the executor's derivation exactly. *)
        let direct = ref liveout in
        for k = 0 to own_nd - 1 do
          let g = ga.Group_analysis.dim_of_stage.(m).(k) in
          let s = ga.Group_analysis.scales.(m).(g) in
          let elo, ehi = ga.Group_analysis.expansions.(m).(g) in
          if
            (elo, ehi) <> (0, 0) || s <> 1
            || ga.Group_analysis.scaled_lo.(m).(g) <> ga.Group_analysis.dim_lo.(g)
            || ga.Group_analysis.scaled_hi.(m).(g) <> ga.Group_analysis.dim_hi.(g)
          then direct := false
        done;
        for g = 0 to ga.Group_analysis.n_dims - 1 do
          if ga.Group_analysis.expansions.(m).(g) <> (0, 0) then direct := false
        done;
        let scratch_extents = member_scratch_extents ga ~member:m ~tile in
        let max_scratch =
          if !direct then 0 else Array.fold_left ( * ) 1 scratch_extents
        in
        {
          sid;
          name = stage.Stage.name;
          dims = Array.map (fun (d : Stage.dim) -> (d.Stage.lo, d.Stage.extent)) stage.Stage.dims;
          liveout;
          direct = !direct;
          scratch_extents;
          max_scratch;
        })
      ga.Group_analysis.members
  in
  {
    members;
    tile;
    tiles_per_dim;
    n_tiles;
    n_dims = ga.Group_analysis.n_dims;
    scales = ga.Group_analysis.scales;
    dim_of_stage = ga.Group_analysis.dim_of_stage;
    scaled_lo = ga.Group_analysis.scaled_lo;
    scaled_hi = ga.Group_analysis.scaled_hi;
    dim_lo = ga.Group_analysis.dim_lo;
    dim_hi = ga.Group_analysis.dim_hi;
    expansions = ga.Group_analysis.expansions;
    edges =
      Array.of_list
        (List.map
           (fun (e : Group_analysis.edge) ->
             {
               e_producer = e.Group_analysis.e_producer;
               e_consumer = e.Group_analysis.e_consumer;
               hull = e.Group_analysis.hull;
             })
           ga.Group_analysis.edges);
  }

let arena_bytes g =
  Array.fold_left
    (fun acc m -> if m.direct then acc else acc + (m.max_scratch * 8))
    0 g.members

(* The post-lowering analyzer, registered by Pmdp_verify.Verify.install.
   A hook rather than a call so this module does not depend on the
   checker (which depends on the executors, which depend on this
   module). *)
let analyzer : (Pipeline.t -> t -> (unit, Pmdp_error.t) result) option ref = ref None
let set_analyzer a = analyzer := a

let lower (spec : Schedule_spec.t) =
  Schedule_spec.validate spec;
  let p = spec.Schedule_spec.pipeline in
  let groups = Array.of_list (List.map (lower_group p) spec.Schedule_spec.groups) in
  let liveouts =
    List.concat_map
      (fun g ->
        List.filter_map
          (fun m -> if m.liveout then Some m.name else None)
          (Array.to_list g.members))
      (Array.to_list groups)
  in
  let working_set_bytes =
    Array.fold_left
      (fun acc g ->
        Array.fold_left
          (fun acc m ->
            if m.liveout then
              acc + (Array.fold_left (fun n (_, e) -> n * e) 1 m.dims * 8)
            else acc)
          acc g.members)
      0 groups
  in
  let scratch_bytes_per_worker =
    Array.fold_left (fun acc g -> max acc (arena_bytes g)) 0 groups
  in
  {
    version;
    pipeline = p.Pipeline.name;
    n_stages = Pipeline.n_stages p;
    groups;
    liveouts;
    working_set_bytes;
    scratch_bytes_per_worker;
  }

let of_spec (spec : Schedule_spec.t) =
  let ir = lower spec in
  Option.iter
    (fun analyze ->
      match analyze spec.Schedule_spec.pipeline ir with
      | Ok () -> ()
      | Error e -> Pmdp_error.raise_ e)
    !analyzer;
  ir

let of_spec_result spec =
  match of_spec spec with
  | ir -> Ok ir
  | exception Pmdp_error.Error e -> Error e
  | exception Invalid_argument reason ->
      Error (Pmdp_error.Plan_invalid { context = "Schedule_spec.validate"; reason })

(* ------------------------------------------------------------------ *)
(* Instantiation bridge: IR group -> Group_analysis.t, validated
   against the pipeline it claims to lower. *)

let plan_invalid fmt =
  Printf.ksprintf
    (fun reason -> Pmdp_error.raise_ (Pmdp_error.Plan_invalid { context = "Pmdp_plan"; reason }))
    fmt

let group_analysis p (g : group) : Group_analysis.t =
  let n = Array.length g.members in
  if n = 0 then plan_invalid "empty group";
  let check_rows what rows =
    if Array.length rows <> n then
      plan_invalid "%s has %d rows for %d members" what (Array.length rows) n;
    Array.iter
      (fun row ->
        if Array.length row <> g.n_dims then
          plan_invalid "%s row has %d entries for %d group dims" what (Array.length row) g.n_dims)
      rows
  in
  check_rows "scales" g.scales;
  Array.iter
    (Array.iter (fun s -> if s < 1 then plan_invalid "non-positive integer scale %d" s))
    g.scales;
  check_rows "scaled_lo" g.scaled_lo;
  check_rows "scaled_hi" g.scaled_hi;
  check_rows "expansions" (Array.map (Array.map fst) g.expansions);
  if Array.length g.dim_of_stage <> n then
    plan_invalid "dim_of_stage has %d rows for %d members" (Array.length g.dim_of_stage) n;
  if Array.length g.dim_lo <> g.n_dims || Array.length g.dim_hi <> g.n_dims then
    plan_invalid "group-dim hull arity differs from n_dims %d" g.n_dims;
  if Array.length g.tile <> g.n_dims then
    plan_invalid "tile array has %d entries for %d group dims" (Array.length g.tile) g.n_dims;
  Array.iteri
    (fun d t -> if t < 1 then plan_invalid "tile size %d along group dim %d" t d)
    g.tile;
  Array.iteri
    (fun m (mir : member) ->
      if mir.sid < 0 || mir.sid >= Pipeline.n_stages p then
        plan_invalid "stage id %d out of range for pipeline %s" mir.sid p.Pipeline.name;
      let stage = Pipeline.stage p mir.sid in
      if stage.Stage.name <> mir.name then
        plan_invalid "member %d names %S but pipeline stage %d is %S (stale plan?)" m mir.name
          mir.sid stage.Stage.name;
      let dims = Array.map (fun (d : Stage.dim) -> (d.Stage.lo, d.Stage.extent)) stage.Stage.dims in
      if dims <> mir.dims then
        plan_invalid "member %s: buffer extents differ from the pipeline's (stale plan?)" mir.name;
      if Array.length g.dim_of_stage.(m) <> Stage.ndims stage then
        plan_invalid "member %s: dim_of_stage arity %d, stage has %d dims" mir.name
          (Array.length g.dim_of_stage.(m))
          (Stage.ndims stage);
      Array.iter
        (fun d ->
          if d < 0 || d >= g.n_dims then
            plan_invalid "member %s: own dim maps to group dim %d of %d" mir.name d g.n_dims)
        g.dim_of_stage.(m))
    g.members;
  Array.iter
    (fun (e : edge) ->
      if e.e_producer < 0 || e.e_producer >= n || e.e_consumer < 0 || e.e_consumer >= n then
        plan_invalid "edge endpoints (%d, %d) out of member range" e.e_producer e.e_consumer;
      if Array.length e.hull <> g.n_dims then
        plan_invalid "edge hull arity %d for %d group dims" (Array.length e.hull) g.n_dims)
    g.edges;
  {
    Group_analysis.pipeline = p;
    members = Array.map (fun m -> m.sid) g.members;
    n_dims = g.n_dims;
    scales = g.scales;
    dim_of_stage = g.dim_of_stage;
    scaled_lo = g.scaled_lo;
    scaled_hi = g.scaled_hi;
    dim_lo = g.dim_lo;
    dim_hi = g.dim_hi;
    edges =
      List.map
        (fun (e : edge) ->
          {
            Group_analysis.e_producer = e.e_producer;
            e_consumer = e.e_consumer;
            offsets = [ e.hull ];
            hull = e.hull;
          })
        (Array.to_list g.edges);
    expansions = g.expansions;
    liveouts = Array.map (fun m -> m.liveout) g.members;
  }

(* ------------------------------------------------------------------ *)
(* JSON codec.  Field order is fixed; every emission path goes through
   these constructors, so equal IRs render byte-identically and the
   digest is a content address. *)

let j_ints a = Json.List (List.map (fun i -> Json.Int i) (Array.to_list a))
let j_mat m = Json.List (List.map j_ints (Array.to_list m))
let j_pair (a, b) = Json.List [ Json.Int a; Json.Int b ]
let j_pairs a = Json.List (List.map j_pair (Array.to_list a))
let j_pair_mat m = Json.List (List.map j_pairs (Array.to_list m))

let member_to_json (m : member) =
  Json.Obj
    [
      ("sid", Json.Int m.sid);
      ("name", Json.String m.name);
      ("dims", j_pairs m.dims);
      ("liveout", Json.Bool m.liveout);
      ("direct", Json.Bool m.direct);
      ("scratch_extents", j_ints m.scratch_extents);
      ("max_scratch", Json.Int m.max_scratch);
    ]

let edge_to_json (e : edge) =
  Json.Obj
    [
      ("producer", Json.Int e.e_producer);
      ("consumer", Json.Int e.e_consumer);
      ("hull", j_pairs e.hull);
    ]

let group_to_json (g : group) =
  Json.Obj
    [
      ("members", Json.List (List.map member_to_json (Array.to_list g.members)));
      ("tile", j_ints g.tile);
      ("tiles_per_dim", j_ints g.tiles_per_dim);
      ("n_tiles", Json.Int g.n_tiles);
      ("n_dims", Json.Int g.n_dims);
      ("scales", j_mat g.scales);
      ("dim_of_stage", j_mat g.dim_of_stage);
      ("scaled_lo", j_mat g.scaled_lo);
      ("scaled_hi", j_mat g.scaled_hi);
      ("dim_lo", j_ints g.dim_lo);
      ("dim_hi", j_ints g.dim_hi);
      ("expansions", j_pair_mat g.expansions);
      ("edges", Json.List (List.map edge_to_json (Array.to_list g.edges)));
    ]

let to_json (t : t) =
  Json.Obj
    [
      ("version", Json.Int t.version);
      ("pipeline", Json.String t.pipeline);
      ("n_stages", Json.Int t.n_stages);
      ("groups", Json.List (List.map group_to_json (Array.to_list t.groups)));
      ("liveouts", Json.List (List.map (fun s -> Json.String s) t.liveouts));
      ("working_set_bytes", Json.Int t.working_set_bytes);
      ("scratch_bytes_per_worker", Json.Int t.scratch_bytes_per_worker);
    ]

exception Parse of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse s)) fmt

let field name j =
  match Json.member name j with Some v -> v | None -> fail "missing field %S" name

let p_int name j =
  match Json.to_int_opt (field name j) with
  | Some i -> i
  | None -> fail "field %S: expected an integer" name

let p_string name j =
  match Json.to_string_opt (field name j) with
  | Some s -> s
  | None -> fail "field %S: expected a string" name

let p_bool name j =
  match Json.to_bool_opt (field name j) with
  | Some b -> b
  | None -> fail "field %S: expected a bool" name

let p_list name j =
  match Json.to_list_opt (field name j) with
  | Some l -> l
  | None -> fail "field %S: expected a list" name

let as_int name j =
  match Json.to_int_opt j with Some i -> i | None -> fail "%s: expected an integer" name

let p_ints name j = Array.of_list (List.map (as_int name) (p_list name j))

let p_mat name j =
  Array.of_list
    (List.map
       (fun row ->
         match Json.to_list_opt row with
         | Some l -> Array.of_list (List.map (as_int name) l)
         | None -> fail "field %S: expected a list of lists" name)
       (p_list name j))

let as_pair name j =
  match Json.to_list_opt j with
  | Some [ a; b ] -> (as_int name a, as_int name b)
  | _ -> fail "%s: expected a [lo, hi] pair" name

let p_pairs name j = Array.of_list (List.map (as_pair name) (p_list name j))

let p_pair_mat name j =
  Array.of_list
    (List.map
       (fun row ->
         match Json.to_list_opt row with
         | Some l -> Array.of_list (List.map (as_pair name) l)
         | None -> fail "field %S: expected a list of pair lists" name)
       (p_list name j))

let member_of_json j =
  {
    sid = p_int "sid" j;
    name = p_string "name" j;
    dims = p_pairs "dims" j;
    liveout = p_bool "liveout" j;
    direct = p_bool "direct" j;
    scratch_extents = p_ints "scratch_extents" j;
    max_scratch = p_int "max_scratch" j;
  }

let edge_of_json j =
  { e_producer = p_int "producer" j; e_consumer = p_int "consumer" j; hull = p_pairs "hull" j }

let group_of_json j =
  {
    members = Array.of_list (List.map member_of_json (p_list "members" j));
    tile = p_ints "tile" j;
    tiles_per_dim = p_ints "tiles_per_dim" j;
    n_tiles = p_int "n_tiles" j;
    n_dims = p_int "n_dims" j;
    scales = p_mat "scales" j;
    dim_of_stage = p_mat "dim_of_stage" j;
    scaled_lo = p_mat "scaled_lo" j;
    scaled_hi = p_mat "scaled_hi" j;
    dim_lo = p_ints "dim_lo" j;
    dim_hi = p_ints "dim_hi" j;
    expansions = p_pair_mat "expansions" j;
    edges = Array.of_list (List.map edge_of_json (p_list "edges" j));
  }

let of_json j =
  match
    let v = p_int "version" j in
    if v <> version then fail "unsupported plan IR version %d (expected %d)" v version;
    {
      version = v;
      pipeline = p_string "pipeline" j;
      n_stages = p_int "n_stages" j;
      groups = Array.of_list (List.map group_of_json (p_list "groups" j));
      liveouts =
        List.map
          (fun s ->
            match Json.to_string_opt s with
            | Some s -> s
            | None -> fail "liveouts: expected strings")
          (p_list "liveouts" j);
      working_set_bytes = p_int "working_set_bytes" j;
      scratch_bytes_per_worker = p_int "scratch_bytes_per_worker" j;
    }
  with
  | t -> Ok t
  | exception Parse msg -> Error ("plan IR: " ^ msg)

let digest t = Digest.to_hex (Digest.string (Json.to_string (to_json t)))

(* The kernel digest keys compiled shared objects, so it must change
   whenever either the plan content or the extern ABI the emitter
   produces changes — hence the ABI-version salt. *)
let kernel_abi_version = 1

let kernel_digest t =
  Digest.to_hex
    (Digest.string (Printf.sprintf "pmdp-kernel-abi-%d:%s" kernel_abi_version (digest t)))

(* On-disk envelope: the IR plus the digest it was written with, so a
   reader can detect both tampering (recomputed digest differs) and
   drift (digest differs from a freshly lowered plan).  The kernel
   digest rides along so cache tooling can map a plan envelope to its
   compiled-kernel artifact without re-deriving the salt. *)
let write path t =
  Json.to_file path
    (Json.Obj
       [
         ("schema_version", Json.Int 1);
         ("digest", Json.String (digest t));
         ("kernel_digest", Json.String (kernel_digest t));
         ("plan", to_json t);
       ])

let read path =
  match Json.of_file path with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok j -> (
      match (Json.member "digest" j, Json.member "plan" j) with
      | Some d, Some pj -> (
          match (Json.to_string_opt d, of_json pj) with
          | Some d, Ok ir -> Ok (ir, d)
          | None, _ -> Error (path ^ ": digest field is not a string")
          | _, Error e -> Error (Printf.sprintf "%s: %s" path e))
      | _ -> Error (path ^ ": expected an object with \"digest\" and \"plan\" fields"))

let n_groups t = Array.length t.groups
let total_tiles t = Array.fold_left (fun acc g -> acc + g.n_tiles) 0 t.groups

let pp ppf t =
  Format.fprintf ppf "@[<v>plan IR for %s: %d groups, %d tiles, digest %s@," t.pipeline
    (n_groups t) (total_tiles t) (String.sub (digest t) 0 12);
  Array.iteri
    (fun i g ->
      Format.fprintf ppf "  group %d: {%s} tile=[%s] tiles=%d scratch=%dB@," i
        (String.concat "," (Array.to_list (Array.map (fun m -> m.name) g.members)))
        (String.concat "x" (Array.to_list (Array.map string_of_int g.tile)))
        g.n_tiles (arena_bytes g))
    t.groups;
  Format.fprintf ppf "@]"

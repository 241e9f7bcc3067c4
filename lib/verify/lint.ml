module Pipeline = Pmdp_dsl.Pipeline
module Stage = Pmdp_dsl.Stage
module Expr = Pmdp_dsl.Expr
module Dag = Pmdp_dag.Dag
module D = Diagnostic

let err = D.make D.Lint D.Error
let warn = D.make D.Lint D.Warning

let producer_ndims p name =
  match Array.find_opt (fun (i : Pipeline.input) -> i.Pipeline.in_name = name) p.Pipeline.inputs with
  | Some i -> Some (Array.length i.Pipeline.in_dims)
  | None -> (
      match Pipeline.stage_id p name with
      | sid -> Some (Stage.ndims (Pipeline.stage p sid))
      | exception Not_found -> None)

let check_pipeline (p : Pipeline.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let n = Pipeline.n_stages p in
  (* Reachability-based dead-code checks. *)
  for sid = 0 to n - 1 do
    let sname = (Pipeline.stage p sid).Stage.name in
    let reaches_output =
      List.exists (fun o -> Dag.is_reachable p.Pipeline.dag ~src:sid ~dst:o) p.Pipeline.outputs
    in
    if not reaches_output then
      add (warn ~kind:"unused-stage" ~stage:sname "no pipeline output depends on this stage")
  done;
  let loads_inputs = Array.init n (fun sid -> Pipeline.input_loads p sid <> []) in
  List.iter
    (fun o ->
      let from_input =
        let rec depends sid seen =
          loads_inputs.(sid)
          || List.exists
               (fun pr -> (not (List.mem pr seen)) && depends pr (sid :: seen))
               (Pipeline.producers p sid)
        in
        depends o []
      in
      if not from_input then
        add
          (warn ~kind:"unreachable-output" ~stage:(Pipeline.stage p o).Stage.name
             "output depends on no pipeline input; it is a constant image"))
    p.Pipeline.outputs;
  (* Structural checks on every load of every stage body. *)
  for sid = 0 to n - 1 do
    let stage = Pipeline.stage p sid in
    let sname = stage.Stage.name in
    let n_vars = Stage.n_iter_vars stage in
    ignore
      (Expr.fold_loads
         (fun () name coords ->
           (match producer_ndims p name with
           | None ->
               add
                 (err ~kind:"unknown-producer" ~stage:sname
                    (Printf.sprintf "load of %S resolves to no stage or input" name))
           | Some nd ->
               if Array.length coords <> nd then
                 add
                   (err ~kind:"dim-mismatch" ~stage:sname
                      (Printf.sprintf "load of %s has %d coordinates, producer has %d dims" name
                         (Array.length coords) nd)));
           Array.iter
             (fun coord ->
               match coord with
               | Expr.Cdyn _ -> ()
               | Expr.Cvar { var; _ } ->
                   if var < 0 || var >= n_vars then
                     add
                       (err ~kind:"var-out-of-range" ~stage:sname
                          (Printf.sprintf "coordinate uses variable %d; stage has %d" var n_vars)))
             coords;
           ())
         () (Stage.body_expr stage))
  done;
  (* Input accesses that can never land inside the input's domain. *)
  for sid = 0 to n - 1 do
    let stage = Pipeline.stage p sid in
    List.iter
      (fun (name, (coords : Expr.coord array)) ->
        match Array.find_opt (fun (i : Pipeline.input) -> i.Pipeline.in_name = name) p.Pipeline.inputs with
        | None -> ()
        | Some input ->
            Array.iteri
              (fun d coord ->
                match coord with
                | Expr.Cdyn _ -> ()
                | Expr.Cvar { var; scale = a; offset = b } -> (
                    match Affine.var_domain stage var with
                    | exception Invalid_argument _ -> ()
                    | clo, chi ->
                        if d < Array.length input.Pipeline.in_dims then begin
                          let ilo, ihi = Affine.index_interval ~a ~b ~clo ~chi in
                          let dim = input.Pipeline.in_dims.(d) in
                          let dlo = dim.Stage.lo and dhi = dim.Stage.lo + dim.Stage.extent - 1 in
                          if ihi < dlo || ilo > dhi then
                            add
                              (err ~kind:"const-out-of-domain" ~stage:stage.Stage.name ~dim:d
                                 (Printf.sprintf
                                    "reads input %s at indices [%d, %d], entirely outside its domain [%d, %d]"
                                    name ilo ihi dlo dhi))
                        end))
              coords)
      (Pipeline.input_loads p sid)
  done;
  List.rev !diags

let check_pipeline = Lint.check_pipeline
let check_plan = Plan_check.check
let errors = Diagnostic.errors
let is_clean ds = errors ds = []

let check_plan_result ?budget ?workers p ir =
  match errors (check_plan ?budget ?workers p ir) with
  | [] -> Ok ()
  | d :: _ as errs ->
      Error
        (Pmdp_util.Pmdp_error.Plan_invalid
           {
             context = Printf.sprintf "Verify.check_plan (%d error(s))" (List.length errs);
             reason = Diagnostic.to_string d;
           })

let install () = Pmdp_plan.set_analyzer (Some (fun p ir -> check_plan_result p ir))
let uninstall () = Pmdp_plan.set_analyzer None

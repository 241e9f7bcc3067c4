(* In-memory span recorder for the benchmark's traced runs.  Spans are
   recorded around calls into the program's layers (never inside the
   program), kept in memory, and written out once at the end.  Each
   span carries both clocks: wall time and the process's CPU time
   (own plus reaped children), so a layer's self time can be read in
   either. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, -1 at top level *)
  req : int;  (** operation/request id shared by the spans of one op *)
  app : string;
  t0 : float;  (** wall seconds *)
  t1 : float;
  c0 : float;  (** CPU seconds *)
  c1 : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let current_req = ref 0

let reset () =
  recorded := [];
  next_id := 0;
  stack := []

(* Run [f] inside a span named [name]; a no-op wrapper when tracing is
   off.  A span is recorded even when [f] raises. *)
let with_span ?(app = "") name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let t0 = Measure.wall_now () and c0 = Measure.cpu_now () in
    let finish () =
      let c1 = Measure.cpu_now () and t1 = Measure.wall_now () in
      stack := List.tl !stack;
      recorded := { id; name; parent; req = !current_req; app; t0; t1; c0; c1 } :: !recorded
    in
    Fun.protect ~finally:finish f
  end

(* Self time of an interval: its length minus the part of it covered
   by the union of its children's intervals (children are clipped to
   the parent and may overlap one another). *)
let self_time ~start ~stop children =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a start and b = Float.min b stop in
        if b > a then Some (a, b) else None)
      children
  in
  let sorted = List.sort compare clipped in
  let covered, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (acc +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  let covered = match last with None -> covered | Some (a, b) -> covered +. (b -. a) in
  Float.max 0.0 (stop -. start -. covered)

let all () = List.rev !recorded

(* Self CPU time of every recorded span, in the order recorded. *)
let self_cpu spans =
  let kids = Hashtbl.create 64 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent (s.c0, s.c1)) spans;
  List.map (fun s -> (s, self_time ~start:s.c0 ~stop:s.c1 (Hashtbl.find_all kids s.id))) spans

let to_json_line s =
  Printf.sprintf
    {|{"id":%d,"name":%S,"parent":%d,"req":%d,"app":%S,"wall_start":%.9f,"wall_end":%.9f,"cpu_start":%.9f,"cpu_end":%.9f}|}
    s.id s.name s.parent s.req s.app s.t0 s.t1 s.c0 s.c1

let write path =
  let oc = open_out path in
  List.iter (fun s -> output_string oc (to_json_line s ^ "\n")) (all ());
  close_out oc

(* Clocks, /proc readers and summary statistics for the repository
   benchmark.  The parsers and statistics are pure functions over
   strings and arrays, so the tests can drive them without a process
   to look at.  The statistics are the benchmark's own rather than
   [Pmdp_util.Stats], so that a change to the program under test cannot
   change how it is measured. *)

external cpu_times : unit -> float array = "repobench_cpu_times"
external clock_ticks : unit -> int = "repobench_clock_ticks"

(* ---- statistics ---------------------------------------------------- *)

(* Nearest-rank percentile: the smallest sample such that at least [p]
   percent of the samples are <= it. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Measure.percentile: no samples";
  if p < 0.0 || p > 100.0 then invalid_arg "Measure.percentile: p outside [0, 100]";
  let s = Array.copy xs in
  Array.sort compare s;
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  s.(max 0 (min (n - 1) (rank - 1)))

(* Midpoint median (mean of the two middle samples for even counts). *)
let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Measure.median: no samples";
  let s = Array.copy xs in
  Array.sort compare s;
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let geomean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Measure.geomean: no samples";
  Array.iter (fun x -> if not (x > 0.0) then invalid_arg "Measure.geomean: non-positive sample") xs;
  exp (Array.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int n)

(* ---- /proc parsing ------------------------------------------------- *)

type proc_cpu = {
  utime : float;  (** seconds *)
  stime : float;
  cutime : float;  (** reaped children, seconds *)
  cstime : float;
}

(* Parse the text of /proc/<pid>/stat.  The command name (field 2) is
   parenthesized and may itself hold spaces or parentheses, so fields
   are counted from the last ')'; utime..cstime are fields 14..17. *)
let parse_proc_stat ~ticks text =
  match String.rindex_opt text ')' with
  | None -> None
  | Some i -> (
      let rest = String.sub text (i + 1) (String.length text - i - 1) in
      let fields = List.filter (( <> ) "") (String.split_on_char ' ' (String.trim rest)) in
      (* [fields] starts at field 3 (state). *)
      let field k = List.nth_opt fields (k - 3) in
      let sec k = Option.bind (field k) (fun s -> Option.map (fun v -> float_of_int v /. float_of_int ticks) (int_of_string_opt s)) in
      match (sec 14, sec 15, sec 16, sec 17) with
      | Some utime, Some stime, Some cutime, Some cstime -> Some { utime; stime; cutime; cstime }
      | _ -> None)

(* The value of a "Key:   N kB" line of /proc/<pid>/status, in kB. *)
let parse_status_kb ~key text =
  let prefix = key ^ ":" in
  List.find_map
    (fun line ->
      if String.starts_with ~prefix line then
        let v = String.sub line (String.length prefix) (String.length line - String.length prefix) in
        match List.filter (( <> ) "") (String.split_on_char ' ' (String.trim v)) with
        | n :: _ -> int_of_string_opt (String.trim n)
        | [] -> None
      else None)
    (String.split_on_char '\n' text)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      (* /proc files report length 0: read until EOF. *)
      let b = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        let n = input ic chunk 0 4096 in
        if n > 0 then (
          Buffer.add_subbytes b chunk 0 n;
          go ())
      in
      go ();
      Buffer.contents b)

let proc_cpu pid =
  match parse_proc_stat ~ticks:(clock_ticks ()) (read_file (Printf.sprintf "/proc/%d/stat" pid)) with
  | Some c -> c
  | None -> failwith (Printf.sprintf "unparseable /proc/%d/stat" pid)

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match parse_status_kb ~key:"VmHWM" (read_file path) with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> failwith ("no VmHWM in " ^ path)

(* ---- clocks -------------------------------------------------------- *)

(* CPU seconds of this process plus every child it has reaped: the
   task clock of work that runs on one thread at a time, whether in
   the program or in the C compiler it forks. *)
let cpu_now () =
  let t = cpu_times () in
  t.(0) +. t.(1)

let child_cpu_now () = (cpu_times ()).(1)
let wall_now = Unix.gettimeofday

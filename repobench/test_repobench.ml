(* Tests for the benchmark's own helpers: percentiles, geomean,
   /proc parsing and span self time. *)

module M = Repobench.Measure
module S = Repobench.Spans

let close a b = Float.abs (a -. b) < 1e-9

let () =
  let xs = [| 15.; 20.; 35.; 40.; 50. |] in
  (* Nearest rank: the ceil(p/100 * n)-th smallest sample. *)
  assert (M.percentile 5.0 xs = 15.);
  assert (M.percentile 30.0 xs = 20.);
  assert (M.percentile 40.0 xs = 20.);
  assert (M.percentile 50.0 xs = 35.);
  assert (M.percentile 100.0 xs = 50.);
  assert (M.percentile 0.0 xs = 15.);
  assert (M.percentile 99.0 (Array.init 1000 float_of_int) = 989.);
  assert (M.percentile 50.0 [| 3.; 1.; 2. |] = 2.);
  assert (match M.percentile 50.0 [||] with _ -> false | exception Invalid_argument _ -> true);
  assert (M.median [| 4.; 1.; 3.; 2. |] = 2.5);
  assert (M.median [| 7. |] = 7.);
  assert (close (M.geomean [| 1.; 4.; 16. |]) 4.);
  assert (close (M.geomean [| 2.; 8. |]) 4.);
  assert (match M.geomean [| 1.; 0. |] with _ -> false | exception Invalid_argument _ -> true)

let () =
  (* A command name holding spaces and a ')' must not shift fields. *)
  let stat =
    "4242 (pmdp serve) x) S 1 4242 4242 0 -1 4194560 1000 0 0 0 250 37 12 5 20 0 4 0 100 1000 200"
  in
  (match M.parse_proc_stat ~ticks:100 stat with
  | Some c ->
      assert (close c.M.utime 2.50);
      assert (close c.M.stime 0.37);
      assert (close c.M.cutime 0.12);
      assert (close c.M.cstime 0.05)
  | None -> assert false);
  assert (M.parse_proc_stat ~ticks:100 "garbage" = None);
  assert (M.parse_proc_stat ~ticks:100 "1 (x) S 1 2" = None);
  let status = "Name:\tpmdp\nVmPeak:\t  300000 kB\nVmHWM:\t   123456 kB\nVmRSS:\t 100 kB\n" in
  assert (M.parse_status_kb ~key:"VmHWM" status = Some 123456);
  assert (M.parse_status_kb ~key:"VmRSS" status = Some 100);
  assert (M.parse_status_kb ~key:"VmSwap" status = None);
  (* The live readers agree with the parsers on this process. *)
  assert (M.peak_rss_mb 0 > 0.0);
  let c = M.proc_cpu (Unix.getpid ()) in
  assert (c.M.utime >= 0.0 && c.M.stime >= 0.0)

let () =
  (* No children: all self. *)
  assert (close (S.self_time ~start:0. ~stop:10. []) 10.);
  (* Disjoint children. *)
  assert (close (S.self_time ~start:0. ~stop:10. [ (1., 3.); (5., 6.) ]) 7.);
  (* Overlapping children count once. *)
  assert (close (S.self_time ~start:0. ~stop:10. [ (1., 4.); (2., 6.) ]) 5.);
  (* Children are clipped to the parent. *)
  assert (close (S.self_time ~start:0. ~stop:10. [ (-5., 2.); (9., 20.) ]) 7.);
  (* Fully covered. *)
  assert (close (S.self_time ~start:0. ~stop:10. [ (0., 10.) ]) 0.);
  (* Recorded spans: the parent's self time excludes its child. *)
  S.reset ();
  S.enabled := true;
  let spin d =
    let t = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t < d do
      ()
    done
  in
  S.with_span "outer" (fun () ->
      spin 0.02;
      S.with_span "inner" (fun () -> spin 0.03));
  S.enabled := false;
  let spans = S.self_cpu (S.all ()) in
  let find n = List.find (fun ((s : S.span), _) -> s.S.name = n) spans in
  let outer, outer_self = find "outer" and inner, inner_self = find "inner" in
  assert (List.length spans = 2);
  assert (inner.S.parent = outer.S.id && outer.S.parent = -1);
  assert (close outer_self (outer.S.c1 -. outer.S.c0 -. (inner.S.c1 -. inner.S.c0)));
  assert (close inner_self (inner.S.c1 -. inner.S.c0))

let () = print_endline "repobench helpers: ok"

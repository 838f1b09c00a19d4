(* Incremental-session benchmark: cold vs warm intersection throughput
   as a function of churn. For each delta fraction f the bench opens a
   fresh cache directory, runs Session.run_incremental cold, replaces
   f*n elements on each side, and re-runs warm — only the changed
   elements pay a modexp, so the warm run's cost is the paper's Ce*|Δ|
   amortized term plus the (unchanged) communication term. Writes
   BENCH_incremental.json.

   Run: dune exec bench/incremental_bench.exe [--quick]

   The warm transcript is byte-identical to a cold one (asserted below
   against a cache-free reference run), so this file measures time and
   counter parity only. Target: warm ≥ 10x cold at 1% churn, n=2000.

   Each point also splits the warm session's persistence off its run:
   the cost of opening the warm store (loading and verifying every
   entry) and of closing it dirty (rewriting every entry), each timed
   alone on the store the warm run left behind, from a collected heap
   so the warm run's garbage is not billed to them. *)

module Json = Obs.Export.Json
module Session = Psi.Session

let quick = Array.exists (String.equal "--quick") Sys.argv
let fractions = [ 0.; 0.01; 0.1; 0.5; 1.0 ]
let target_fraction = 0.01
let target_speedup = 10.
let now_s () = Int64.to_float (Obs.Clock.now_ns ()) *. 1e-9

let group = Crypto.Group.named Crypto.Group.Test256
let n = if quick then 300 else 2_000

(* ------------------------------------------------------------------ *)
(* Scratch cache directories, one per fraction.                        *)
(* ------------------------------------------------------------------ *)

let temp_dir tag =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "psi-incr-bench-%d-%s" (Unix.getpid ()) tag)
  in
  (try Sys.mkdir dir 0o700 with Sys_error _ -> ());
  dir

let remove_dir dir =
  match Sys.readdir dir with
  | names ->
      Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ()) names;
      (try Sys.rmdir dir with Sys_error _ -> ())
  | exception Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Workload: half-overlapping sets, churn replaces the tail of each.   *)
(* ------------------------------------------------------------------ *)

let base_sets () =
  Psi.Workload.value_sets ~seed:"incremental-bench" ~n_s:n ~n_r:n ~overlap:(n / 2)

(* Replace the last [d] elements with values no run has seen before:
   every replacement is a genuine cache miss, none collides with the
   surviving prefix. *)
let churn ~tag ~d values =
  let arr = Array.of_list values in
  let len = Array.length arr in
  for i = len - d to len - 1 do
    arr.(i) <- Printf.sprintf "churn-%s-%06d" tag i
  done;
  Array.to_list arr

let result_equal a b =
  match (a, b) with
  | Session.Values xs, Session.Values ys -> List.equal String.equal xs ys
  | Session.Size x, Session.Size y -> x = y
  | Session.Matches xs, Session.Matches ys ->
      List.equal
        (fun (k, vs) (k', vs') -> String.equal k k' && List.equal String.equal vs vs')
        xs ys
  | _ -> false

(* ------------------------------------------------------------------ *)
(* One churn point: cold run, mutate, warm run, cache-free reference.  *)
(* ------------------------------------------------------------------ *)

type point = {
  fraction : float;
  d : int;  (** per-side replacements *)
  cold_seconds : float;
  warm_seconds : float;
  open_seconds : float;  (** [Ecache.open_] of the warm store *)
  close_seconds : float;  (** [Ecache.close] of the warm store, dirty *)
  warm_stats : Session.incremental_stats;
  warm_encryptions : int;
  row : Psi.Obs_report.amortized_row;
}

let run_point params fraction =
  let d = int_of_float (Float.round (fraction *. float_of_int n)) in
  let dir = temp_dir (Printf.sprintf "f%g" fraction) in
  Fun.protect
    ~finally:(fun () -> remove_dir dir)
    (fun () ->
      let cfg = Psi.Protocol.config ~domain:"incremental-bench" group in
      let vs, vr = base_sets () in
      let ops vs vr = [ Session.Intersect { s_values = vs; r_values = vr } ] in
      let t0 = now_s () in
      let cold = Session.run_incremental cfg ~cache_dir:dir (ops vs vr) () in
      let cold_seconds = now_s () -. t0 in
      assert cold.Session.incremental.Session.cold;
      let vs' = churn ~tag:"s" ~d vs and vr' = churn ~tag:"r" ~d vr in
      let t0 = now_s () in
      let warm = Session.run_incremental cfg ~cache_dir:dir (ops vs' vr') () in
      let warm_seconds = now_s () -. t0 in
      let stats = warm.Session.incremental in
      (* Parity: the warm transcript must match a run that never saw a
         cache. Identical results and identical byte counts. *)
      let reference = Session.run cfg ~seed:"session" (ops vs' vr') () in
      assert (
        List.equal result_equal warm.Session.report.Session.results
          reference.Session.results);
      assert (warm.Session.report.Session.total_bytes = reference.Session.total_bytes);
      let warm_encryptions = warm.Session.report.Session.ops.Psi.Protocol.encryptions in
      Gc.full_major ();
      let t0 = now_s () in
      let cache = Psi.Ecache.open_ ~dir () in
      let open_seconds = now_s () -. t0 in
      Psi.Ecache.put cache ~ns:"incremental-bench" ~key_fp:"" "dirty" "";
      let t0 = now_s () in
      Psi.Ecache.close cache;
      let close_seconds = now_s () -. t0 in
      let row =
        Psi.Obs_report.amortized_row params Psi.Cost_model.Intersection ~v_s:n ~v_r:n
          ~delta_s:d ~delta_r:d
          ~measured_encryptions:(float_of_int warm_encryptions)
          ~measured_seconds:warm_seconds ()
      in
      Printf.printf
        "f=%-4g d=%5d: cold %7.1f ms, warm %7.1f ms (%6.1fx; open %5.1f ms, close %5.1f ms), \
         hits=%d misses=%d Ce=%d\n%!"
        fraction d (1000. *. cold_seconds) (1000. *. warm_seconds)
        (cold_seconds /. warm_seconds) (1000. *. open_seconds) (1000. *. close_seconds)
        stats.Session.hits stats.Session.misses warm_encryptions;
      { fraction; d; cold_seconds; warm_seconds; open_seconds; close_seconds;
        warm_stats = stats; warm_encryptions; row })

let point_json p =
  let eps dt = float_of_int (2 * n) /. dt in
  Json.Obj
    [
      ("delta_fraction", Json.of_float p.fraction);
      ("delta_per_side", Json.of_int p.d);
      ("cold_seconds", Json.of_float p.cold_seconds);
      ("warm_seconds", Json.of_float p.warm_seconds);
      ("cold_elements_per_s", Json.of_float (eps p.cold_seconds));
      ("warm_elements_per_s", Json.of_float (eps p.warm_seconds));
      ("speedup", Json.of_float (p.cold_seconds /. p.warm_seconds));
      ("warm_open_seconds", Json.of_float p.open_seconds);
      ("warm_close_seconds", Json.of_float p.close_seconds);
      ("warm_hits", Json.of_int p.warm_stats.Session.hits);
      ("warm_misses", Json.of_int p.warm_stats.Session.misses);
      ("warm_encryptions", Json.of_int p.warm_encryptions);
    ]

let () =
  Printf.printf "incremental intersection bench: n=%d per side (Test256)\n%!" n;
  let params =
    { (Psi.Cost_model.measured_params ~samples:(if quick then 3 else 9) group) with
      Psi.Cost_model.k_bits = 8 * Crypto.Group.element_bytes group }
  in
  let points = List.map (run_point params) fractions in
  Printf.printf "\namortized model vs measured (Ce*|delta| + full comm):\n%!";
  Format.printf "%a%!" Psi.Obs_report.pp_amortized (List.map (fun p -> p.row) points);
  let target =
    List.find (fun p -> Float.abs (p.fraction -. target_fraction) < 1e-9) points
  in
  let achieved = target.cold_seconds /. target.warm_seconds in
  let pass = achieved >= target_speedup in
  Printf.printf "\ntarget: warm >= %gx cold at %g%% churn -- achieved %.1fx: %s\n%!"
    target_speedup (100. *. target_fraction) achieved
    (if pass then "PASS" else "FAIL");
  let json =
    Json.Obj
      (Obs.Export.box_profile ()
      @ [
        ("group", Json.Str "test256");
        ("n_per_side", Json.of_int n);
        ("fractions", Json.Arr (List.map Json.of_float fractions));
        ("points", Json.Arr (List.map point_json points));
        ("amortized_table",
         Psi.Obs_report.amortized_to_json (List.map (fun p -> p.row) points));
        ("target",
         Json.Obj
           [
             ("delta_fraction", Json.of_float target_fraction);
             ("required_speedup", Json.of_float target_speedup);
             ("achieved_speedup", Json.of_float achieved);
             ("pass", Json.Bool pass);
           ]);
      ])
  in
  let oc = open_out "BENCH_incremental.json" in
  output_string oc (Json.to_string json);
  output_string oc "\n";
  close_out oc;
  Printf.printf "\nwrote BENCH_incremental.json\n";
  if not pass then exit 1

(** Mini-PolyBench kernels: fully affine loop nests with compile-time
    constant bounds and direct (non-indirect) subscripts.  Unlike most
    mini-Rodinia programs these are completely static — the polyhedral
    dependence engine ({!Analysis.Statdep}) resolves every access, so
    they exercise the instrumentation-pruning fast path end to end
    (close to 100% of dynamic memory accesses skip shadow tracking). *)

open Vm.Hir.Dsl
module H = Vm.Hir

let loc = Workload.loc

(* ------------------------------------------------------------------ *)
(* gemm: C := A * B + C                                                *)
(* ------------------------------------------------------------------ *)

let gemm =
  let n = 12 in
  let at r c = (r *! i n) +! c in
  let kernel =
    H.fundef "gemm_kernel" []
      [ H.for_ ~loc:(loc "gemm.c" 10) "r" (i 0) (i n)
          [ H.for_ ~loc:(loc "gemm.c" 11) "c" (i 0) (i n)
              [ H.for_ ~loc:(loc "gemm.c" 13) "k" (i 0) (i n)
                  [ H.Let ("a", "A".%[at (v "r") (v "k")]);
                    H.Let ("b", "B".%[at (v "k") (v "c")]);
                    H.Let ("acc", "C".%[at (v "r") (v "c")]);
                    store "C" (at (v "r") (v "c"))
                      (v "acc" +? (v "a" *? v "b")) ] ] ] ]
  in
  let main =
    H.fundef "main" []
      (Workload.init_float_array "A" (n * n)
      @ Workload.init_float_array "B" (n * n)
      @ Workload.init_float_array "C" (n * n)
      @ [ H.CallS (None, "gemm_kernel", []) ])
  in
  Workload.make ~name:"gemm" ~kernel:"gemm_kernel"
    { H.funs = Workload.libm @ [ kernel; main ];
      arrays = [ ("A", n * n); ("B", n * n); ("C", n * n) ];
      main = "main" }

(* ------------------------------------------------------------------ *)
(* jacobi_2d: alternating 5-point stencil sweeps                       *)
(* ------------------------------------------------------------------ *)

let jacobi_2d =
  let n = 14 and steps = 3 in
  let at r c = (r *! i n) +! c in
  let sweep fname src dst line =
    H.fundef fname []
      [ H.for_ ~loc:(loc "jacobi-2d.c" line) "r" (i 1) (i (n - 1))
          [ H.for_ ~loc:(loc "jacobi-2d.c" (line + 1)) "c" (i 1) (i (n - 1))
              [ H.Let ("m", src.%[at (v "r") (v "c")]);
                H.Let ("no", src.%[at (v "r" -! i 1) (v "c")]);
                H.Let ("so", src.%[at (v "r" +! i 1) (v "c")]);
                H.Let ("we", src.%[at (v "r") (v "c" -! i 1)]);
                H.Let ("ea", src.%[at (v "r") (v "c" +! i 1)]);
                store dst (at (v "r") (v "c"))
                  (f 0.2
                  *? (v "m" +? (v "no" +? (v "so" +? (v "we" +? v "ea")))))
              ] ] ]
  in
  let main =
    H.fundef "main" []
      (Workload.init_float_array "Aj" (n * n)
      @ Workload.init_float_array "Bj" (n * n)
      @ [ H.for_ ~loc:(loc "jacobi-2d.c" 30) "t" (i 0) (i steps)
            [ H.CallS (None, "jacobi_step_ab", []);
              H.CallS (None, "jacobi_step_ba", []) ] ])
  in
  Workload.make ~name:"jacobi_2d" ~kernel:"jacobi_step_ab"
    { H.funs =
        Workload.libm
        @ [ sweep "jacobi_step_ab" "Aj" "Bj" 10;
            sweep "jacobi_step_ba" "Bj" "Aj" 20;
            main ];
      arrays = [ ("Aj", n * n); ("Bj", n * n) ];
      main = "main" }

(* ------------------------------------------------------------------ *)
(* atax: y := A^T (A x)                                                *)
(* ------------------------------------------------------------------ *)

let atax =
  let n = 20 in
  let at r c = (r *! i n) +! c in
  let kernel =
    H.fundef "atax_kernel" []
      [ H.for_ ~loc:(loc "atax.c" 8) "r0" (i 0) (i n)
          [ store "yv" (v "r0") (f 0.0) ];
        H.for_ ~loc:(loc "atax.c" 10) "r" (i 0) (i n)
          [ H.Let ("tmp", f 0.0);
            H.for_ ~loc:(loc "atax.c" 12) "c" (i 0) (i n)
              [ H.Let ("a", "Ax".%[at (v "r") (v "c")]);
                H.Let ("x", "xv".%[v "c"]);
                H.Let ("tmp", v "tmp" +? (v "a" *? v "x")) ];
            H.for_ ~loc:(loc "atax.c" 15) "c2" (i 0) (i n)
              [ H.Let ("a2", "Ax".%[at (v "r") (v "c2")]);
                H.Let ("y0", "yv".%[v "c2"]);
                store "yv" (v "c2") (v "y0" +? (v "a2" *? v "tmp")) ] ] ]
  in
  let main =
    H.fundef "main" []
      (Workload.init_float_array "Ax" (n * n)
      @ Workload.init_float_array "xv" n
      @ [ H.CallS (None, "atax_kernel", []) ])
  in
  Workload.make ~name:"atax" ~kernel:"atax_kernel"
    { H.funs = Workload.libm @ [ kernel; main ];
      arrays = [ ("Ax", n * n); ("xv", n); ("yv", n) ];
      main = "main" }

(* ------------------------------------------------------------------ *)
(* mvt: x1 += A y1;  x2 += A^T y2                                      *)
(* ------------------------------------------------------------------ *)

let mvt =
  let n = 24 in
  let at r c = (r *! i n) +! c in
  let kernel =
    H.fundef "mvt_kernel" []
      [ H.for_ ~loc:(loc "mvt.c" 8) "r" (i 0) (i n)
          [ H.for_ ~loc:(loc "mvt.c" 9) "c" (i 0) (i n)
              [ H.Let ("x1", "x1v".%[v "r"]);
                H.Let ("a", "Am".%[at (v "r") (v "c")]);
                H.Let ("y1", "y1v".%[v "c"]);
                store "x1v" (v "r") (v "x1" +? (v "a" *? v "y1")) ] ];
        H.for_ ~loc:(loc "mvt.c" 13) "r2" (i 0) (i n)
          [ H.for_ ~loc:(loc "mvt.c" 14) "c2" (i 0) (i n)
              [ H.Let ("x2", "x2v".%[v "r2"]);
                H.Let ("a2", "Am".%[at (v "c2") (v "r2")]);
                H.Let ("y2", "y2v".%[v "c2"]);
                store "x2v" (v "r2") (v "x2" +? (v "a2" *? v "y2")) ] ] ]
  in
  let main =
    H.fundef "main" []
      (Workload.init_float_array "Am" (n * n)
      @ Workload.init_float_array "x1v" n
      @ Workload.init_float_array "x2v" n
      @ Workload.init_float_array "y1v" n
      @ Workload.init_float_array "y2v" n
      @ [ H.CallS (None, "mvt_kernel", []) ])
  in
  Workload.make ~name:"mvt" ~kernel:"mvt_kernel"
    { H.funs = Workload.libm @ [ kernel; main ];
      arrays =
        [ ("Am", n * n); ("x1v", n); ("x2v", n); ("y1v", n); ("y2v", n) ];
      main = "main" }

(* ------------------------------------------------------------------ *)
(* seidel_1d: in-place 3-point Gauss-Seidel sweeps (loop-carried)      *)
(* ------------------------------------------------------------------ *)

let seidel_1d =
  let n = 40 and steps = 6 in
  let kernel =
    H.fundef "seidel_kernel" []
      [ H.for_ ~loc:(loc "seidel-1d.c" 8) "t" (i 0) (i steps)
          [ H.for_ ~loc:(loc "seidel-1d.c" 9) "j" (i 1) (i (n - 1))
              [ H.Let ("w", "As".%[v "j" -! i 1]);
                H.Let ("m", "As".%[v "j"]);
                H.Let ("e", "As".%[v "j" +! i 1]);
                store "As" (v "j")
                  (f 0.33333 *? (v "w" +? (v "m" +? v "e"))) ] ] ]
  in
  let main =
    H.fundef "main" []
      (Workload.init_float_array "As" n
      @ [ H.CallS (None, "seidel_kernel", []) ])
  in
  Workload.make ~name:"seidel_1d" ~kernel:"seidel_kernel"
    { H.funs = Workload.libm @ [ kernel; main ];
      arrays = [ ("As", n) ];
      main = "main" }

(* ------------------------------------------------------------------ *)
(* trisolv: forward substitution x := L^-1 b (triangular bounds)        *)
(* ------------------------------------------------------------------ *)

let trisolv =
  let n = 24 in
  let at r c = (r *! i n) +! c in
  let kernel =
    H.fundef "trisolv_kernel" []
      [ H.for_ ~loc:(loc "trisolv.c" 8) "r" (i 0) (i n)
          [ H.Let ("acc", "bt".%[v "r"]);
            H.for_ ~loc:(loc "trisolv.c" 10) "c" (i 0) (v "r")
              [ H.Let ("l", "Lt".%[at (v "r") (v "c")]);
                H.Let ("x", "xt".%[v "c"]);
                H.Let ("acc", v "acc" -? (v "l" *? v "x")) ];
            H.Let ("d", "Lt".%[at (v "r") (v "r")]);
            store "xt" (v "r") (v "acc" /? (v "d" +? f 1.0)) ] ]
  in
  let main =
    H.fundef "main" []
      (Workload.init_float_array "Lt" (n * n)
      @ Workload.init_float_array "bt" n
      @ [ H.CallS (None, "trisolv_kernel", []) ])
  in
  Workload.make ~name:"trisolv" ~kernel:"trisolv_kernel"
    { H.funs = Workload.libm @ [ kernel; main ];
      arrays = [ ("Lt", n * n); ("bt", n); ("xt", n) ];
      main = "main" }

(* ------------------------------------------------------------------ *)
(* cholesky: in-place lower-triangular factorisation (no sqrt: the     *)
(* diagonal is regularised instead, which keeps the access pattern)    *)
(* ------------------------------------------------------------------ *)

let cholesky =
  let n = 32 in
  let at r c = (r *! i n) +! c in
  let kernel =
    H.fundef "cholesky_kernel" []
      [ H.for_ ~loc:(loc "cholesky.c" 8) "r" (i 0) (i n)
          [ H.for_ ~loc:(loc "cholesky.c" 9) "c" (i 0) (v "r")
              [ H.for_ ~loc:(loc "cholesky.c" 11) "k" (i 0) (v "c")
                  [ H.Let ("a", "Ach".%[at (v "r") (v "k")]);
                    H.Let ("b", "Ach".%[at (v "c") (v "k")]);
                    H.Let ("acc", "Ach".%[at (v "r") (v "c")]);
                    store "Ach" (at (v "r") (v "c"))
                      (v "acc" -? (v "a" *? v "b")) ];
                H.Let ("d", "Ach".%[at (v "c") (v "c")]);
                H.Let ("acc2", "Ach".%[at (v "r") (v "c")]);
                store "Ach" (at (v "r") (v "c"))
                  (v "acc2" /? (v "d" +? f 1.0)) ] ] ]
  in
  let main =
    H.fundef "main" []
      (Workload.init_float_array "Ach" (n * n)
      @ [ H.CallS (None, "cholesky_kernel", []) ])
  in
  Workload.make ~name:"cholesky" ~kernel:"cholesky_kernel"
    { H.funs = Workload.libm @ [ kernel; main ];
      arrays = [ ("Ach", n * n) ];
      main = "main" }

(* ------------------------------------------------------------------ *)
(* trmm: B := A^T B with unit-diagonal triangular A (affine lower       *)
(* bound k = r+1 in an outer IV)                                        *)
(* ------------------------------------------------------------------ *)

let trmm =
  let m = 24 in
  let at r c = (r *! i m) +! c in
  let kernel =
    H.fundef "trmm_kernel" []
      [ H.for_ ~loc:(loc "trmm.c" 8) "r" (i 0) (i m)
          [ H.for_ ~loc:(loc "trmm.c" 9) "c" (i 0) (i m)
              [ H.for_ ~loc:(loc "trmm.c" 11) "k" (v "r" +! i 1) (i m)
                  [ H.Let ("a", "Atm".%[at (v "k") (v "r")]);
                    H.Let ("b", "Btm".%[at (v "k") (v "c")]);
                    H.Let ("acc", "Btm".%[at (v "r") (v "c")]);
                    store "Btm" (at (v "r") (v "c"))
                      (v "acc" +? (v "a" *? v "b")) ];
                H.Let ("acc2", "Btm".%[at (v "r") (v "c")]);
                store "Btm" (at (v "r") (v "c")) (f 1.5 *? v "acc2") ] ] ]
  in
  let main =
    H.fundef "main" []
      (Workload.init_float_array "Atm" (m * m)
      @ Workload.init_float_array "Btm" (m * m)
      @ [ H.CallS (None, "trmm_kernel", []) ])
  in
  Workload.make ~name:"trmm" ~kernel:"trmm_kernel"
    { H.funs = Workload.libm @ [ kernel; main ];
      arrays = [ ("Atm", m * m); ("Btm", m * m) ];
      main = "main" }

(* ------------------------------------------------------------------ *)
(* lu: in-place LU factorisation (trapezoidal: both inner loops start   *)
(* at k+1)                                                              *)
(* ------------------------------------------------------------------ *)

let lu =
  let n = 28 in
  let at r c = (r *! i n) +! c in
  let kernel =
    H.fundef "lu_kernel" []
      [ H.for_ ~loc:(loc "lu.c" 8) "k" (i 0) (i n)
          [ H.for_ ~loc:(loc "lu.c" 9) "c" (v "k" +! i 1) (i n)
              [ H.Let ("p", "Alu".%[at (v "k") (v "k")]);
                H.Let ("u", "Alu".%[at (v "k") (v "c")]);
                store "Alu" (at (v "k") (v "c"))
                  (v "u" /? (v "p" +? f 1.0)) ];
            H.for_ ~loc:(loc "lu.c" 12) "r" (v "k" +! i 1) (i n)
              [ H.for_ ~loc:(loc "lu.c" 13) "c2" (v "k" +! i 1) (i n)
                  [ H.Let ("l", "Alu".%[at (v "r") (v "k")]);
                    H.Let ("u2", "Alu".%[at (v "k") (v "c2")]);
                    H.Let ("acc", "Alu".%[at (v "r") (v "c2")]);
                    store "Alu" (at (v "r") (v "c2"))
                      (v "acc" -? (v "l" *? v "u2")) ] ] ] ]
  in
  let main =
    H.fundef "main" []
      (Workload.init_float_array "Alu" (n * n)
      @ [ H.CallS (None, "lu_kernel", []) ])
  in
  Workload.make ~name:"lu" ~kernel:"lu_kernel"
    { H.funs = Workload.libm @ [ kernel; main ];
      arrays = [ ("Alu", n * n) ];
      main = "main" }

(* ------------------------------------------------------------------ *)
(* seidel_wd: "weakly dynamic" thresholded Gauss-Seidel — the store is  *)
(* guarded by a data-dependent branch that in fact always fires (the    *)
(* initial values are non-negative), so the speculative static engine   *)
(* keeps the polyhedral model under an Expect_taken witness             *)
(* ------------------------------------------------------------------ *)

let seidel_wd_kernel ~name ~threshold ~flip =
  let n = 96 and steps = 14 in
  let guard s = if flip then s <? f threshold else s >? f threshold in
  let kernel =
    H.fundef (name ^ "_kernel") []
      [ H.for_ ~loc:(loc "seidel-wd.c" 8) "t" (i 0) (i steps)
          [ H.for_ ~loc:(loc "seidel-wd.c" 9) "j" (i 1) (i (n - 1))
              [ H.Let ("w", "Aw".%[v "j" -! i 1]);
                H.Let ("m", "Aw".%[v "j"]);
                H.Let ("e", "Aw".%[v "j" +! i 1]);
                H.Let ("s", f 0.33333 *? (v "w" +? (v "m" +? v "e")));
                H.If (guard (v "s"), [ store "Aw" (v "j") (v "s") ], []) ] ] ]
  in
  let main =
    H.fundef "main" []
      (Workload.init_float_array "Aw" n
      @ [ H.CallS (None, name ^ "_kernel", []) ])
  in
  Workload.make ~name ~kernel:(name ^ "_kernel")
    { H.funs = Workload.libm @ [ kernel; main ];
      arrays = [ ("Aw", n) ];
      main = "main" }

let seidel_wd = seidel_wd_kernel ~name:"seidel_wd" ~threshold:(-1.0) ~flip:false

(* witness-failure seeds (not in [all]): [seidel_wd_mixed]'s guard goes
   both ways at runtime (speculation must be turned off for the guard),
   [seidel_wd_skip]'s guard never fires (the speculation flips to an
   Expect_skip witness) — both recover exact results via
   [Analysis.Statdep.fallback_profile] *)
let seidel_wd_mixed =
  seidel_wd_kernel ~name:"seidel_wd_mixed" ~threshold:1.0 ~flip:false

let seidel_wd_skip =
  seidel_wd_kernel ~name:"seidel_wd_skip" ~threshold:(-1.0) ~flip:true

(* ------------------------------------------------------------------ *)
(* gesummv: y := alpha*A*x + beta*B*x, naively split into three loops   *)
(* (the straightforward C translation computes tmp, then y, then the    *)
(* linear combination — a classic fusion chain for the autotuner)       *)
(* ------------------------------------------------------------------ *)

let gesummv =
  let n = 20 in
  let at r c = (r *! i n) +! c in
  let kernel =
    H.fundef "gesummv_kernel" []
      [ H.for_ ~loc:(loc "gesummv.c" 8) "r" (i 0) (i n)
          [ H.for_ ~loc:(loc "gesummv.c" 9) "c" (i 0) (i n)
              [ H.Let ("t", "tmp".%[v "r"]);
                H.Let ("a", "Ag".%[at (v "r") (v "c")]);
                H.Let ("x", "xg".%[v "c"]);
                store "tmp" (v "r") (v "t" +? (v "a" *? v "x")) ] ];
        H.for_ ~loc:(loc "gesummv.c" 12) "r2" (i 0) (i n)
          [ H.for_ ~loc:(loc "gesummv.c" 13) "c2" (i 0) (i n)
              [ H.Let ("y", "yg".%[v "r2"]);
                H.Let ("b", "Bg".%[at (v "r2") (v "c2")]);
                H.Let ("x2", "xg".%[v "c2"]);
                store "yg" (v "r2") (v "y" +? (v "b" *? v "x2")) ] ];
        H.for_ ~loc:(loc "gesummv.c" 16) "r3" (i 0) (i n)
          [ H.Let ("tf", "tmp".%[v "r3"]);
            H.Let ("yf", "yg".%[v "r3"]);
            store "yg" (v "r3")
              ((f 1.5 *? v "tf") +? (f 1.2 *? v "yf")) ] ]
  in
  let main =
    H.fundef "main" []
      (Workload.init_float_array "Ag" (n * n)
      @ Workload.init_float_array "Bg" (n * n)
      @ Workload.init_float_array "xg" n
      @ Workload.init_float_array "tmp" n
      @ Workload.init_float_array "yg" n
      @ [ H.CallS (None, "gesummv_kernel", []) ])
  in
  Workload.make ~name:"gesummv" ~kernel:"gesummv_kernel"
    { H.funs = Workload.libm @ [ kernel; main ];
      arrays =
        [ ("Ag", n * n); ("Bg", n * n); ("xg", n); ("tmp", n); ("yg", n) ];
      main = "main" }

(* ------------------------------------------------------------------ *)
(* bicg: s := A^T r and q := A p, split into two independent nests      *)
(* ------------------------------------------------------------------ *)

let bicg =
  let n = 20 in
  let at r c = (r *! i n) +! c in
  let kernel =
    H.fundef "bicg_kernel" []
      [ H.for_ ~loc:(loc "bicg.c" 8) "r" (i 0) (i n)
          [ H.for_ ~loc:(loc "bicg.c" 9) "c" (i 0) (i n)
              [ H.Let ("s", "sv".%[v "c"]);
                H.Let ("rr", "rv".%[v "r"]);
                H.Let ("a", "Ab".%[at (v "r") (v "c")]);
                store "sv" (v "c") (v "s" +? (v "rr" *? v "a")) ] ];
        H.for_ ~loc:(loc "bicg.c" 12) "r2" (i 0) (i n)
          [ H.for_ ~loc:(loc "bicg.c" 13) "c2" (i 0) (i n)
              [ H.Let ("q", "qv".%[v "r2"]);
                H.Let ("a2", "Ab".%[at (v "r2") (v "c2")]);
                H.Let ("p", "pv".%[v "c2"]);
                store "qv" (v "r2") (v "q" +? (v "a2" *? v "p")) ] ] ]
  in
  let main =
    H.fundef "main" []
      (Workload.init_float_array "Ab" (n * n)
      @ Workload.init_float_array "rv" n
      @ Workload.init_float_array "pv" n
      @ Workload.init_float_array "sv" n
      @ Workload.init_float_array "qv" n
      @ [ H.CallS (None, "bicg_kernel", []) ])
  in
  Workload.make ~name:"bicg" ~kernel:"bicg_kernel"
    { H.funs = Workload.libm @ [ kernel; main ];
      arrays =
        [ ("Ab", n * n); ("rv", n); ("pv", n); ("sv", n); ("qv", n) ];
      main = "main" }

let all =
  [ gemm; jacobi_2d; atax; mvt; gesummv; bicg; seidel_1d; trisolv; cholesky;
    trmm; lu; seidel_wd ]

(* ------------------------------------------------------------------ *)
(* Seeded parallelism-certifier variants.  Not part of [all]: each one
   pins one verdict of the certifier ({!Analysis.Parcheck}) on its
   outer kernel loop, for the parcheck smoke gates and tests.          *)
(* ------------------------------------------------------------------ *)

(* par_racy: a true loop-carried flow dependence on the outer loop,
   A[r] = A[r-1] + B[r] -- must yield a race witness, never a
   certificate (and the dynamic sanitizer must observe the conflict). *)
let par_racy =
  let n = 24 in
  let kernel =
    H.fundef "par_racy_kernel" []
      [ H.for_ ~loc:(loc "par-racy.c" 5) "r" (i 1) (i n)
          [ H.Let ("p", "A".%[v "r" -! i 1]);
            H.Let ("b", "B".%[v "r"]);
            store "A" (v "r") (v "p" +? v "b") ] ]
  in
  let main =
    H.fundef "main" []
      (Workload.init_float_array "A" n
      @ Workload.init_float_array "B" n
      @ [ H.CallS (None, "par_racy_kernel", []) ])
  in
  Workload.make ~name:"par_racy" ~kernel:"par_racy_kernel"
    { H.funs = Workload.libm @ [ kernel; main ];
      arrays = [ ("A", n); ("B", n) ];
      main = "main" }

(* par_reduction: S[0] += A[r] * A[r] -- a commutative read-modify-write
   chain on a single location; the outer loop is certified with a
   non-empty reduction access set. *)
let par_reduction =
  let n = 24 in
  let kernel =
    H.fundef "par_reduction_kernel" []
      [ H.for_ ~loc:(loc "par-reduction.c" 5) "r" (i 0) (i n)
          [ H.Let ("a", "A".%[v "r"]);
            H.Let ("acc", "S".%[i 0]);
            store "S" (i 0) (v "acc" +? (v "a" *? v "a")) ] ]
  in
  let main =
    H.fundef "main" []
      (Workload.init_float_array "A" n
      @ Workload.init_float_array "S" 1
      @ [ H.CallS (None, "par_reduction_kernel", []) ])
  in
  Workload.make ~name:"par_reduction" ~kernel:"par_reduction_kernel"
    { H.funs = Workload.libm @ [ kernel; main ];
      arrays = [ ("A", n); ("S", 1) ];
      main = "main" }

(* par_private: the scratch row T is fully overwritten before being
   read in every outer iteration -- the outer loop is certified by
   array privatisation of T. *)
let par_private =
  let n = 10 in
  let at r c = (r *! i n) +! c in
  let kernel =
    H.fundef "par_private_kernel" []
      [ H.for_ ~loc:(loc "par-private.c" 5) "r" (i 0) (i n)
          [ H.for_ ~loc:(loc "par-private.c" 6) "c" (i 0) (i n)
              [ H.Let ("a", "A".%[at (v "r") (v "c")]);
                store "T" (v "c") (v "a" *? f 0.5) ];
            H.for_ ~loc:(loc "par-private.c" 8) "c2" (i 0) (i n)
              [ H.Let ("t", "T".%[v "c2"]);
                H.Let ("cc", "C".%[at (v "r") (v "c2")]);
                store "C" (at (v "r") (v "c2")) (v "cc" +? v "t") ] ] ]
  in
  let main =
    H.fundef "main" []
      (Workload.init_float_array "A" (n * n)
      @ Workload.init_float_array "C" (n * n)
      @ Workload.init_float_array "T" n
      @ [ H.CallS (None, "par_private_kernel", []) ])
  in
  Workload.make ~name:"par_private" ~kernel:"par_private_kernel"
    { H.funs = Workload.libm @ [ kernel; main ];
      arrays = [ ("A", n * n); ("C", n * n); ("T", n) ];
      main = "main" }

(* findable by name (CLI) without joining the benchmark suite *)
let seeded = [ par_racy; par_reduction; par_private ]

(* The random structured programs of the fuzzing and parity tests:
   nested loops, conditionals, calls, and loads/stores with mixed
   affine and irregular indexing; [gen_program_rec] adds a recursive
   walker called from a loop of main. *)

open Vm.Hir.Dsl
module H = Vm.Hir

let arr_size = 32

type genctx = { mutable fresh : int; mutable depth : int }

let rec gen_expr ctx vars rand =
  (* an integer expression usable as an array index (kept in range with
     a final modulo when irregular) *)
  match rand 6 with
  | 0 | 1 -> i (rand arr_size)
  | 2 | 3 -> (
      match vars with
      | [] -> i (rand arr_size)
      | _ -> v (List.nth vars (rand (List.length vars))))
  | 4 ->
      let a = gen_expr ctx vars rand and b = gen_expr ctx vars rand in
      (a +! b) %! i arr_size
  | _ ->
      let a = gen_expr ctx vars rand in
      (a *! i (1 + rand 3)) %! i arr_size

let rec gen_stmts ctx vars rand budget =
  if budget <= 0 then []
  else
    let s, cost = gen_stmt ctx vars rand budget in
    s :: gen_stmts ctx vars rand (budget - cost)

and gen_stmt ctx vars rand budget =
  let idx () = gen_expr ctx vars rand in
  match rand (if ctx.depth >= 3 then 4 else 6) with
  | 0 ->
      (* store *)
      (store "data" (idx ()) ("data".%[idx ()] +! i (rand 5)), 1)
  | 1 ->
      let name = Printf.sprintf "v%d" ctx.fresh in
      ctx.fresh <- ctx.fresh + 1;
      (H.Let (name, idx ()), 1)
  | 2 ->
      (* guarded store *)
      ( H.If
          ( idx () <! i (rand arr_size + 1),
            [ store "data" (idx ()) (i (rand 9)) ],
            [ store "aux" (idx ()) (i (rand 9)) ] ),
        2 )
  | 3 -> (H.CallS (Some "c", "leaf", [ idx () ]), 2)
  | _ ->
      (* a loop *)
      let name = Printf.sprintf "k%d" ctx.fresh in
      ctx.fresh <- ctx.fresh + 1;
      ctx.depth <- ctx.depth + 1;
      let body = gen_stmts ctx (name :: vars) rand (budget / 2) in
      ctx.depth <- ctx.depth - 1;
      let body = if body = [] then [ H.Let ("t", v name) ] else body in
      (H.for_ name (i 0) (i (2 + rand 5)) body, 2 + (budget / 2))

let gen_program seed : H.program =
  let st = Random.State.make [| seed |] in
  let rand n = Random.State.int st (max 1 n) in
  let ctx = { fresh = 0; depth = 0 } in
  let body = gen_stmts ctx [] rand 12 in
  let body = if body = [] then [ store "data" (i 0) (i 1) ] else body in
  { H.funs =
      [ H.fundef "leaf" [ "x" ]
          [ store "aux" (v "x" %! i arr_size) (v "x" +! i 1);
            H.Return (Some (v "x" *! i 2)) ];
        H.fundef "main" [] body ];
    arrays = [ ("data", arr_size); ("aux", arr_size) ];
    main = "main" }

(* The generator's programs plus a recursive walker called from a loop
   of main, so calls, recursive components and loop nests all reach the
   dependence profiler. *)
let gen_program_rec seed : H.program =
  let base = gen_program seed in
  let st = Random.State.make [| seed; 1 |] in
  let rand n = Random.State.int st (max 1 n) in
  let walk =
    H.fundef "walk" [ "d"; "x" ]
      [ store "aux" (v "x" %! i arr_size) ("data".%[v "d" %! i arr_size] +! v "x");
        H.If
          ( v "d" <! i (2 + rand 4),
            [ H.CallS (None, "walk", [ v "d" +! i 1; v "x" +! i (1 + rand 3) ]) ],
            [] );
        store "data" (v "d" %! i arr_size) (v "x") ]
  in
  let call_loop =
    H.for_ "r" (i 0) (i (1 + rand 3)) [ H.CallS (None, "walk", [ i (rand 2); v "r" ]) ]
  in
  let funs =
    List.map
      (fun (f : H.fundef) ->
        if f.H.name = "main" then { f with H.body = f.H.body @ [ call_loop ] } else f)
      base.H.funs
  in
  { base with H.funs = walk :: funs }


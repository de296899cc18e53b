(* An all-rows CSR satisfiability check, kept as the reference the
   in-order [R1cs.check] is tested against. It compiles a circuit's
   constraints, read back in synthesis order, into one CSR matrix per
   side and scans every row in order, stopping at the first violated
   one. It adds to the same [snark.r1cs.constraint_evals] counter the
   production check does. *)

open Zen_crypto
open Zen_snark

type csr = { row : int array; idx : int array; coef : Fp.t array }

type t = {
  n_vars : int;
  n_constraints : int;
  ma : csr;
  mb : csr;
  mc : csr;
  labels : string option array;
}

let constraint_evals = Zen_obs.Counter.make "snark.r1cs.constraint_evals"

let csr_of_rows (select : R1cs.constr -> R1cs.lc) cs =
  let n = Array.length cs in
  let row = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    row.(i + 1) <- row.(i) + List.length (select cs.(i))
  done;
  let terms = row.(n) in
  let idx = Array.make terms 0 in
  let coef = Array.make terms Fp.zero in
  Array.iteri
    (fun i c ->
      let j = ref row.(i) in
      List.iter
        (fun ((k, v) : Fp.t * R1cs.var) ->
          coef.(!j) <- k;
          idx.(!j) <- (v :> int);
          incr j)
        (select c))
    cs;
  { row; idx; coef }

let of_circuit circuit =
  let cs = R1cs.constraints circuit in
  {
    n_vars = R1cs.num_vars circuit;
    n_constraints = Array.length cs;
    ma = csr_of_rows (fun c -> c.a) cs;
    mb = csr_of_rows (fun c -> c.b) cs;
    mc = csr_of_rows (fun c -> c.c) cs;
    labels = Array.map (fun (c : R1cs.constr) -> c.label) cs;
  }

let eval_row m z i =
  let stop = m.row.(i + 1) in
  let rec go j acc =
    if j = stop then acc
    else go (j + 1) (Fp.add acc (Fp.mul m.coef.(j) z.(m.idx.(j))))
  in
  go m.row.(i) Fp.zero

let check t z =
  if Array.length z <> t.n_vars then Error "assignment length mismatch"
  else if not (Fp.equal z.(0) Fp.one) then Error "z.(0) must be 1"
  else begin
    let n = t.n_constraints in
    let rec loop i =
      if i = n then begin
        Zen_obs.Counter.add constraint_evals n;
        Ok ()
      end
      else
        let va = eval_row t.ma z i
        and vb = eval_row t.mb z i
        and vc = eval_row t.mc z i in
        if Fp.equal (Fp.mul va vb) vc then loop (i + 1)
        else begin
          Zen_obs.Counter.add constraint_evals (i + 1);
          match t.labels.(i) with
          | Some l ->
            Error (Printf.sprintf "unsatisfied constraint %d (%s)" i l)
          | None -> Error (Printf.sprintf "unsatisfied constraint %d" i)
        end
    in
    loop 0
  end

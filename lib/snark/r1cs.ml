open Zen_crypto

type var = int

type lc = (Fp.t * var) list

type constr = { a : lc; b : lc; c : lc; label : string option }

type builder = {
  mutable next_var : int;
  mutable num_public : int;
  mutable witness_started : bool;
  mutable constraints : constr list; (* reversed *)
  mutable num_constraints : int;
}

(* A finalized constraint system stores each matrix (A, B, C) in CSR
   form: the terms of constraint [i] live at [row.(i) .. row.(i+1)-1]
   in the parallel [idx]/[coef] arrays. [Fp.t] is an immediate int, so
   all three arrays are flat unboxed memory and evaluating a row is a
   tight loop with zero allocation — this is what makes compile-once
   circuit templates pay off on the per-prove hot path. *)
type csr = { row : int array; idx : int array; coef : Fp.t array }

type circuit = {
  name : string;
  n_public : int;
  n_vars : int;
  n_constraints : int;
  ma : csr;
  mb : csr;
  mc : csr;
  labels : string option array;
  digest : Hash.t;
}

let finalizes =
  Zen_obs.Counter.make
    ~help:"R1CS circuits finalized (synthesis + constraint digesting)"
    "snark.r1cs.finalize"

let constraint_evals =
  Zen_obs.Counter.make
    ~help:"R1CS constraints evaluated by satisfiability checks"
    "snark.r1cs.constraint_evals"

let one_var = 0

let create () =
  {
    next_var = 1;
    num_public = 0;
    witness_started = false;
    constraints = [];
    num_constraints = 0;
  }

let alloc_input b =
  if b.witness_started then
    invalid_arg "R1cs.alloc_input: witness allocation already started";
  let v = b.next_var in
  b.next_var <- v + 1;
  b.num_public <- b.num_public + 1;
  v

let alloc_witness b =
  b.witness_started <- true;
  let v = b.next_var in
  b.next_var <- v + 1;
  v

let constrain ?label b a bb c =
  b.constraints <- { a; b = bb; c; label } :: b.constraints;
  b.num_constraints <- b.num_constraints + 1

let lc_bytes lc =
  let buf = Buffer.create 64 in
  List.iter
    (fun (coeff, v) ->
      Buffer.add_string buf (string_of_int (Fp.to_int coeff));
      Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int v);
      Buffer.add_char buf ';')
    lc;
  Buffer.contents buf

let csr_of_rows select cs =
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
        (fun (k, v) ->
          coef.(!j) <- k;
          idx.(!j) <- v;
          incr j)
        (select c))
    cs;
  { row; idx; coef }

let finalize ~name b =
  Zen_obs.Counter.incr finalizes;
  let cs = Array.of_list (List.rev b.constraints) in
  let ctx = Sha256.init () in
  Sha256.feed ctx "zendoo.r1cs.v1";
  Sha256.feed ctx name;
  Sha256.feed ctx (string_of_int b.num_public);
  Sha256.feed ctx (string_of_int b.next_var);
  Array.iter
    (fun { a; b = bb; c; _ } ->
      Sha256.feed ctx (lc_bytes a);
      Sha256.feed ctx "*";
      Sha256.feed ctx (lc_bytes bb);
      Sha256.feed ctx "=";
      Sha256.feed ctx (lc_bytes c);
      Sha256.feed ctx "|")
    cs;
  {
    name;
    n_public = b.num_public;
    n_vars = b.next_var;
    n_constraints = Array.length cs;
    ma = csr_of_rows (fun c -> c.a) cs;
    mb = csr_of_rows (fun c -> c.b) cs;
    mc = csr_of_rows (fun c -> c.c) cs;
    labels = Array.map (fun c -> c.label) cs;
    digest = Hash.of_raw (Sha256.finalize ctx);
  }

let name c = c.name
let num_constraints c = c.n_constraints
let num_public c = c.n_public
let num_vars c = c.n_vars
let num_witness c = c.n_vars - 1 - c.n_public
let digest c = c.digest

let eval_lc z lc =
  List.fold_left (fun acc (coeff, v) -> Fp.add acc (Fp.mul coeff z.(v))) Fp.zero lc

let eval_row m z i =
  let stop = m.row.(i + 1) in
  let rec go j acc =
    if j = stop then acc
    else go (j + 1) (Fp.add acc (Fp.mul m.coef.(j) z.(m.idx.(j))))
  in
  go m.row.(i) Fp.zero

let check circuit z =
  if Array.length z <> circuit.n_vars then Error "assignment length mismatch"
  else if not (Fp.equal z.(0) Fp.one) then Error "z.(0) must be 1"
  else begin
    let n = circuit.n_constraints in
    let rec loop i =
      if i = n then begin
        Zen_obs.Counter.add constraint_evals n;
        Ok ()
      end
      else
        let va = eval_row circuit.ma z i
        and vb = eval_row circuit.mb z i
        and vc = eval_row circuit.mc z i in
        if Fp.equal (Fp.mul va vb) vc then loop (i + 1)
        else begin
          Zen_obs.Counter.add constraint_evals (i + 1);
          match circuit.labels.(i) with
          | Some l ->
            Error (Printf.sprintf "unsatisfied constraint %d (%s)" i l)
          | None -> Error (Printf.sprintf "unsatisfied constraint %d" i)
        end
    in
    loop 0
  end

let satisfied circuit ~public ~witness =
  if Array.length public <> circuit.n_public then
    Error
      (Printf.sprintf "public input length %d, expected %d"
         (Array.length public) circuit.n_public)
  else if Array.length witness <> num_witness circuit then
    Error
      (Printf.sprintf "witness length %d, expected %d" (Array.length witness)
         (num_witness circuit))
  else begin
    let z = Array.make circuit.n_vars Fp.one in
    Array.blit public 0 z 1 (Array.length public);
    Array.blit witness 0 z (1 + circuit.n_public) (Array.length witness);
    check circuit z
  end

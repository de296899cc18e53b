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

(* A finalized constraint system splits its rows in two. A gate row,
   [1·z[a] × 1·z[b] = 1·z[c]] (every multiplication a gadget emits),
   is three variable indices in the flat [ga]/[gb]/[gc] arrays. Every
   other row keeps each matrix (A, B, C) in CSR form: the terms of the
   [k]-th such row live at [row.(k) .. row.(k+1)-1] in the parallel
   [idx]/[coef] arrays. [gate_rows] and [csr_rows] map each stored row
   back to its index in synthesis order, so no row is stored twice.
   [Fp.t] is an immediate int, so every array is flat unboxed memory
   and both check loops run with zero allocation. *)
type csr = { row : int array; idx : int array; coef : Fp.t array }

type circuit = {
  name : string;
  n_public : int;
  n_vars : int;
  n_constraints : int;
  ga : int array;
  gb : int array;
  gc : int array;
  gate_rows : int array;
  ma : csr;
  mb : csr;
  mc : csr;
  csr_rows : int array;
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

let gate_var = function [ (k, v) ] when Fp.equal k Fp.one -> v | _ -> -1

let is_gate c = gate_var c.a >= 0 && gate_var c.b >= 0 && gate_var c.c >= 0

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
  let indices = List.init (Array.length cs) Fun.id in
  let gate_rows, csr_rows = List.partition (fun i -> is_gate cs.(i)) indices in
  let gates = Array.of_list (List.map (fun i -> cs.(i)) gate_rows) in
  let others = Array.of_list (List.map (fun i -> cs.(i)) csr_rows) in
  let gate_vars select = Array.map (fun c -> gate_var (select c)) gates in
  {
    name;
    n_public = b.num_public;
    n_vars = b.next_var;
    n_constraints = Array.length cs;
    ga = gate_vars (fun c -> c.a);
    gb = gate_vars (fun c -> c.b);
    gc = gate_vars (fun c -> c.c);
    gate_rows = Array.of_list gate_rows;
    ma = csr_of_rows (fun c -> c.a) others;
    mb = csr_of_rows (fun c -> c.b) others;
    mc = csr_of_rows (fun c -> c.c) others;
    csr_rows = Array.of_list csr_rows;
    labels = Array.map (fun c -> c.label) cs;
    digest = Hash.of_raw (Sha256.finalize ctx);
  }

let name c = c.name
let num_constraints c = c.n_constraints
let num_public c = c.n_public
let num_vars c = c.n_vars
let num_witness c = c.n_vars - 1 - c.n_public
let digest c = c.digest

let eval_row m z k =
  let acc = ref Fp.zero in
  for j = m.row.(k) to m.row.(k + 1) - 1 do
    acc := Fp.add !acc (Fp.mul m.coef.(j) z.(m.idx.(j)))
  done;
  !acc

(* The first gate that fails, as its position in [gate_rows]; the gate
   count when none does. [ga], [gb] and [gc] have one entry per gate,
   so [g < n] bounds all three. *)
let first_failing_gate circuit z =
  let ga = circuit.ga and gb = circuit.gb and gc = circuit.gc in
  let n = Array.length ga in
  let rec loop g =
    if g = n then n
    else if
      Fp.equal
        (Fp.mul z.(Array.unsafe_get ga g) z.(Array.unsafe_get gb g))
        z.(Array.unsafe_get gc g)
    then loop (g + 1)
    else g
  in
  loop 0

(* The first CSR row that fails, as its position in [csr_rows]; the
   CSR row count when none does. *)
let first_failing_row circuit z =
  let n = Array.length circuit.csr_rows in
  let rec loop k =
    if k = n then n
    else
      let va = eval_row circuit.ma z k
      and vb = eval_row circuit.mb z k
      and vc = eval_row circuit.mc z k in
      if Fp.equal (Fp.mul va vb) vc then loop (k + 1) else k
  in
  loop 0

let unsatisfied i = function
  | Some l -> Printf.sprintf "unsatisfied constraint %d (%s)" i l
  | None -> Printf.sprintf "unsatisfied constraint %d" i

(* Both loops stop at their own first failure; since each keeps
   synthesis order, the earlier of the two is the first failing
   constraint overall. The evaluation count is the one an in-order scan
   would have made: up to and including that constraint. *)
let check circuit z =
  if Array.length z <> circuit.n_vars then Error "assignment length mismatch"
  else if not (Fp.equal z.(0) Fp.one) then Error "z.(0) must be 1"
  else begin
    let g = first_failing_gate circuit z and k = first_failing_row circuit z in
    let at rows j = if j < Array.length rows then rows.(j) else max_int in
    let i = min (at circuit.gate_rows g) (at circuit.csr_rows k) in
    if i = max_int then begin
      Zen_obs.Counter.add constraint_evals circuit.n_constraints;
      Ok ()
    end
    else begin
      Zen_obs.Counter.add constraint_evals (i + 1);
      Error (unsatisfied i circuit.labels.(i))
    end
  end

let lc_at m k =
  let start = m.row.(k) in
  List.init (m.row.(k + 1) - start) (fun t ->
      (m.coef.(start + t), m.idx.(start + t)))

let constraints circuit =
  let out =
    Array.make circuit.n_constraints { a = []; b = []; c = []; label = None }
  in
  let one v = [ (Fp.one, v) ] in
  Array.iteri
    (fun g i ->
      out.(i) <-
        {
          a = one circuit.ga.(g);
          b = one circuit.gb.(g);
          c = one circuit.gc.(g);
          label = circuit.labels.(i);
        })
    circuit.gate_rows;
  Array.iteri
    (fun k i ->
      out.(i) <-
        {
          a = lc_at circuit.ma k;
          b = lc_at circuit.mb k;
          c = lc_at circuit.mc k;
          label = circuit.labels.(i);
        })
    circuit.csr_rows;
  out

let check_lengths circuit ~public ~witness =
  if public <> circuit.n_public then
    Error
      (Printf.sprintf "public input length %d, expected %d" public
         circuit.n_public)
  else if witness <> num_witness circuit then
    Error
      (Printf.sprintf "witness length %d, expected %d" witness
         (num_witness circuit))
  else Ok ()

let satisfied circuit ~public ~witness =
  match
    check_lengths circuit ~public:(Array.length public)
      ~witness:(Array.length witness)
  with
  | Error _ as e -> e
  | Ok () ->
    let z = Array.make circuit.n_vars Fp.one in
    Array.blit public 0 z 1 (Array.length public);
    Array.blit witness 0 z (1 + circuit.n_public) (Array.length witness);
    check circuit z

open Zen_crypto

type var = int

type lc = (Fp.t * var) list

type constr = { a : lc; b : lc; c : lc; label : string option }

type builder = {
  mutable next_var : int;
  mutable num_public : int;
  mutable witness_started : bool;
  mutable constraints : constr list; (* reversed *)
}

type circuit = {
  n_public : int;
  n_vars : int;
  rows : constr array; (* synthesis order *)
  digest : Hash.t;
}

(* Circuits finalized (synthesis + constraint digesting). *)
let finalizes = Zen_obs.Counter.make "snark.r1cs.finalize"

(* Constraints evaluated by satisfiability checks. *)
let constraint_evals = Zen_obs.Counter.make "snark.r1cs.constraint_evals"

let one_var = 0

let create () =
  { next_var = 1; num_public = 0; witness_started = false; constraints = [] }

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
  b.constraints <- { a; b = bb; c; label } :: b.constraints

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
    n_public = b.num_public;
    n_vars = b.next_var;
    rows = cs;
    digest = Hash.of_raw (Sha256.finalize ctx);
  }

let num_constraints c = Array.length c.rows
let num_public c = c.n_public
let num_witness c = c.n_vars - 1 - c.n_public
let digest c = c.digest

let unsatisfied i = function
  | Some l -> Printf.sprintf "unsatisfied constraint %d (%s)" i l
  | None -> Printf.sprintf "unsatisfied constraint %d" i

let rec eval z acc = function
  | [] -> acc
  | (k, v) :: rest -> eval z (Fp.add acc (Fp.mul k z.(v))) rest

let check circuit z =
  if Array.length z <> circuit.n_vars then Error "assignment length mismatch"
  else if not (Fp.equal z.(0) Fp.one) then Error "z.(0) must be 1"
  else begin
    let rows = circuit.rows in
    let n = Array.length rows in
    let rec loop i =
      if i = n then begin
        Zen_obs.Counter.add constraint_evals n;
        Ok ()
      end
      else
        let { a; b; c; label } = rows.(i) in
        let va = eval z Fp.zero a
        and vb = eval z Fp.zero b
        and vc = eval z Fp.zero c in
        if Fp.equal (Fp.mul va vb) vc then loop (i + 1)
        else begin
          Zen_obs.Counter.add constraint_evals (i + 1);
          Error (unsatisfied i label)
        end
    in
    loop 0
  end

let constraints circuit = Array.copy circuit.rows

let check_lengths ~n_public ~n_witness ~public ~witness =
  if public <> n_public then
    Error (Printf.sprintf "public input length %d, expected %d" public n_public)
  else if witness <> n_witness then
    Error
      (Printf.sprintf "witness length %d, expected %d" witness n_witness)
  else Ok ()

let satisfied circuit ~public ~witness =
  match
    check_lengths ~n_public:circuit.n_public ~n_witness:(num_witness circuit)
      ~public:(Array.length public) ~witness:(Array.length witness)
  with
  | Error _ as e -> e
  | Ok () ->
    let z = Array.make circuit.n_vars Fp.one in
    Array.blit public 0 z 1 (Array.length public);
    Array.blit witness 0 z (1 + circuit.n_public) (Array.length witness);
    check circuit z

open Zen_crypto

(* A wire's [terms] is the length of its linear combination. It is
   maintained incrementally in both modes so that a count-only run
   reproduces every structural decision of synthesis (see
   [materialize]) without building the lists themselves. [lc] is
   always [Some] in synthesis. In a count-only run, an input or witness
   wire has [None], and so has every combination that reaches one;
   only a combination of constants alone still carries its list. *)
type wire = { lc : R1cs.lc option; terms : int; value : Fp.t }

(* A count-only run's row tally: the rows reached so far, in synthesis
   order, and the first one whose verdict was false with its label. *)
type rows = { mutable count : int; mutable failed : (int * string option) option }

(* [Shape] emits constraints into an R1CS builder while computing
   values: synthesis, at setup. [Count] is the prover's run of the same
   gadget code: it builds no linear combination over a variable, keeps
   the public values and only the length of the witness, counts the
   rows and checks the assertions among them, and its Poseidon runs the
   native permutation (see [permute]). *)
type mode = Shape of R1cs.builder | Count of rows

(* A growable value column: [n] values live in [vals.(0 .. n-1)]. A
   full column is replaced, never written past, so an array handed out
   by [contents] is never mutated afterwards. *)
type column = { mutable vals : Fp.t array; mutable n : int }

let column size = { vals = Array.make size Fp.zero; n = 0 }

let push col v =
  if col.n = Array.length col.vals then begin
    let grown = Array.make (max 8 (2 * col.n)) Fp.zero in
    Array.blit col.vals 0 grown 0 col.n;
    col.vals <- grown
  end;
  col.vals.(col.n) <- v;
  col.n <- col.n + 1

let contents col =
  if col.n = Array.length col.vals then col.vals else Array.sub col.vals 0 col.n

type ctx = { mode : mode; public : column; witness : column }

let create () =
  { mode = Shape (R1cs.create ()); public = column 0; witness = column 0 }

let create_count ~public =
  {
    mode = Count { count = 0; failed = None };
    public = column public;
    witness = column 0;
  }

(* One row [⟨a,z⟩·⟨bb,z⟩ = ⟨c,z⟩]. Every wire's value is its linear
   combination evaluated on the assignment, so [holds], computed from
   wire values, is the row's verdict. Only assertions pass it: every
   other row defines its output wire as the value that satisfies it. *)
let emit ?label ?(holds = true) ctx a bb c =
  match ctx.mode with
  | Shape builder ->
    R1cs.constrain ?label builder (Option.get a) (Option.get bb)
      (Option.get c)
  | Count rows ->
    if (not holds) && Option.is_none rows.failed then
      rows.failed <- Some (rows.count, label);
    rows.count <- rows.count + 1

(* Both modes refuse a late input with the same exception, so a
   compiled template and its re-synthesis reference fail alike. *)
let input ctx v =
  if ctx.witness.n > 0 then
    invalid_arg "Gadget.input: witness allocation already started";
  let lc =
    match ctx.mode with
    | Shape builder -> Some [ (Fp.one, R1cs.alloc_input builder) ]
    | Count _ -> None
  in
  push ctx.public v;
  { lc; terms = 1; value = v }

let witness ctx v =
  let lc =
    match ctx.mode with
    | Shape builder ->
      push ctx.witness v;
      Some [ (Fp.one, R1cs.alloc_witness builder) ]
    | Count _ ->
      ctx.witness.n <- ctx.witness.n + 1;
      None
  in
  { lc; terms = 1; value = v }

let const v = { lc = Some [ (v, R1cs.one_var) ]; terms = 1; value = v }
let value w = w.value
let terms w = w.terms

(* Linear operations merge coefficient lists; no constraints emitted.
   An operand without a list makes a result without one, so in a
   count-only run only [terms]/[value] move. *)
let add a b =
  let lc =
    match (a.lc, b.lc) with
    | Some x, Some y -> Some (x @ y)
    | None, _ | _, None -> None
  in
  { lc; terms = a.terms + b.terms; value = Fp.add a.value b.value }

let scale k a =
  let lc =
    match a.lc with
    | None -> None
    | Some l -> Some (List.map (fun (c, v) -> (Fp.mul k c, v)) l)
  in
  { lc; terms = a.terms; value = Fp.mul k a.value }

let sub a b = add a (scale (Fp.neg Fp.one) b)

(* Wires are immutable, so one constant wire serves every use. *)
let zero = const Fp.zero
let sum ws = List.fold_left add zero ws

let mul ctx a b =
  let out = witness ctx (Fp.mul a.value b.value) in
  emit ctx a.lc b.lc out.lc;
  out

let square ctx a = mul ctx a a

let one_lc = Some [ (Fp.one, R1cs.one_var) ]
let zero_lc = Some [ (Fp.zero, R1cs.one_var) ]

let assert_eq ?label ctx a b =
  emit ?label ~holds:(Fp.equal a.value b.value) ctx (sub a b).lc one_lc
    zero_lc

let assert_bool ?label ctx a =
  let a_minus_1 = sub a (const Fp.one) in
  emit ?label
    ~holds:(Fp.is_zero (Fp.mul a.value a_minus_1.value))
    ctx a.lc a_minus_1.lc zero_lc

let is_zero ctx v =
  (* y = 1 iff v = 0: constraints v·y = 0 and v·m = 1 − y, with m the
     inverse-or-zero hint. *)
  let m = witness ctx (if Fp.is_zero v.value then Fp.zero else Fp.inv v.value) in
  let y = witness ctx (if Fp.is_zero v.value then Fp.one else Fp.zero) in
  emit ~label:"is_zero.vy" ctx v.lc y.lc zero_lc;
  emit ~label:"is_zero.vm" ctx v.lc m.lc (sub (const Fp.one) y).lc;
  y

let select ctx ~cond a b =
  (* b + cond·(a − b): one multiplication. *)
  add b (mul ctx cond (sub a b))

let assert_le_bits ctx w n =
  let v = Fp.to_int w.value in
  if n < 61 && v lsr n <> 0 then
    invalid_arg "Gadget.assert_le_bits: value does not fit";
  let bits =
    List.init n (fun i -> witness ctx (Fp.of_int ((v lsr i) land 1)))
  in
  List.iter (fun b -> assert_bool ~label:"to_bits.bool" ctx b) bits;
  let recomposed =
    List.mapi (fun i b -> scale (Fp.pow Fp.two i) b) bits |> sum
  in
  assert_eq ~label:"to_bits.sum" ctx recomposed w

(* In-circuit Poseidon: mirrors Zen_crypto.Poseidon.permute exactly so
   the wire values equal the native hash. The S-box x^17 costs five
   multiplications; ARC and MDS are linear and free. *)
let sbox ctx x =
  let x2 = square ctx x in
  let x4 = square ctx x2 in
  let x8 = square ctx x4 in
  let x16 = square ctx x8 in
  mul ctx x16 x

(* Rebind a wire to a fresh single-variable wire when its linear
   combination has grown long; without this, the non-S-boxed lanes of
   partial rounds triple in term count per round (3^22 terms). One
   constraint buys back a constant-size lc. The [terms] threshold makes
   the decision identical in a count-only run, which builds no list. *)
let materialize ctx w =
  if w.terms <= 12 then w
  else begin
    let fresh = witness ctx w.value in
    emit ~label:"materialize" ctx w.lc one_lc fresh.lc;
    fresh
  end

(* The round-constant wires, built on first use so that a process which
   never synthesizes or fills a circuit keeps them off its heap. Domains
   racing on the first use build equal arrays, and either may win. *)
let round_constants_cell = Atomic.make [||]

let round_constants () =
  let rc = Atomic.get round_constants_cell in
  if Array.length rc > 0 then rc
  else begin
    let rc = Array.map const Poseidon.round_constants in
    Atomic.set round_constants_cell rc;
    rc
  end

(* One MDS lane, [Σⱼ mds.(i).(j)·sⱼ], folded from [zero] as [sum] folds:
   the fold fixes the order of the terms the circuit digest covers. *)
let mds_lane ctx i s0 s1 s2 =
  let m = Poseidon.mds.(i) in
  materialize ctx
    (add (add (add zero (scale m.(0) s0)) (scale m.(1) s1)) (scale m.(2) s2))

(* One width-3 round. Lanes are let-bound left to right: sboxes and
   materializations allocate witnesses, and an array literal would
   evaluate its elements right to left, reordering the witness. *)
let round ctx rc s r ~full =
  let k = r * Poseidon.width in
  let a0 = sbox ctx (add s.(0) rc.(k)) in
  let a1 = add s.(1) rc.(k + 1) in
  let a1 = if full then sbox ctx a1 else a1 in
  let a2 = add s.(2) rc.(k + 2) in
  let a2 = if full then sbox ctx a2 else a2 in
  let l0 = mds_lane ctx 0 a0 a1 a2 in
  let l1 = mds_lane ctx 1 a0 a1 a2 in
  let l2 = mds_lane ctx 2 a0 a1 a2 in
  [| l0; l1; l2 |]

let generic_permute ctx state0 =
  let half_full = Poseidon.rounds_full / 2 in
  let partial_end = half_full + Poseidon.rounds_partial in
  let rc = round_constants () in
  let state = ref state0 in
  for r = 0 to Poseidon.rounds_full + Poseidon.rounds_partial - 1 do
    state := round ctx rc !state r ~full:(r < half_full || r >= partial_end)
  done;
  !state

(* What one permutation adds to a run: its witnesses, its rows and its
   output lanes' term counts. These do not depend on the input wires:
   round 0 is full, so every lane enters an S-box, whose first square
   is a fresh witness whatever its operand; from there on every
   [materialize] decision follows from the round index alone. The tally
   is read off one generic run in a count-only context, built on first
   use like [round_constants_cell]. *)
type tally = { witnesses : int; rows : int; out_terms : int array }

let tally_cell = Atomic.make None

let tally () =
  match Atomic.get tally_cell with
  | Some t -> t
  | None ->
    let rows = { count = 0; failed = None } in
    let ctx = { mode = Count rows; public = column 0; witness = column 0 } in
    let out = generic_permute ctx [| zero; zero; zero |] in
    let t =
      {
        witnesses = ctx.witness.n;
        rows = rows.count;
        out_terms = Array.map (fun w -> w.terms) out;
      }
    in
    Atomic.set tally_cell (Some t);
    t

(* A count-only run needs the output values and the tally, not the
   rows: every Poseidon row holds by construction, so the native
   permutation stands in for the rounds. *)
let permute ctx state0 =
  match ctx.mode with
  | Shape _ -> generic_permute ctx state0
  | Count rows ->
    let t = tally () in
    let out = Poseidon.permute_uncounted (Array.map value state0) in
    ctx.witness.n <- ctx.witness.n + t.witnesses;
    rows.count <- rows.count + t.rows;
    Array.mapi
      (fun i v -> { lc = None; terms = t.out_terms.(i); value = v })
      out

let two_to_one_capacity = const (Fp.of_int 2)

let poseidon2 ctx a b =
  let out = permute ctx [| a; b; two_to_one_capacity |] in
  out.(0)

let poseidon_hash ctx wires =
  (* Mirrors Poseidon.hash_fields: rate-2 absorption with the message
     length in the capacity lane. *)
  let n = List.length wires in
  let arr = Array.of_list wires in
  let state = ref [| zero; zero; const (Fp.of_int (n + 3)) |] in
  let i = ref 0 in
  while !i < n do
    let s = Array.copy !state in
    s.(0) <- add s.(0) arr.(!i);
    if !i + 1 < n then s.(1) <- add s.(1) arr.(!i + 1);
    state := permute ctx s;
    i := !i + 2
  done;
  if n = 0 then (permute ctx !state).(0) else !state.(0)

let merkle_root ctx ~leaf ~path_bits ~siblings =
  if List.length path_bits <> List.length siblings then
    invalid_arg "Gadget.merkle_root: arity mismatch";
  List.fold_left2
    (fun cur bit sib ->
      (* bit = 1 means the current node is the right child. *)
      let left = select ctx ~cond:bit sib cur in
      let right = select ctx ~cond:bit cur sib in
      poseidon2 ctx left right)
    leaf path_bits siblings

let public_values ctx = contents ctx.public

let verdict ~public ~witness ~rows ctx =
  match ctx.mode with
  | Shape _ -> invalid_arg "Gadget.verdict: synthesis context"
  | Count run -> (
    match
      R1cs.check_lengths ~n_public:public ~n_witness:witness
        ~public:ctx.public.n ~witness:ctx.witness.n
    with
    | Error _ as e -> e
    | Ok () ->
      if run.count <> rows then Error "circuit shape diverged from setup"
      else
        match run.failed with
        | None -> Ok ()
        | Some (i, label) -> Error (R1cs.unsatisfied i label))

let finalize ~name ctx =
  match ctx.mode with
  | Count _ -> invalid_arg "Gadget.finalize: count-only context"
  | Shape builder ->
    (R1cs.finalize ~name builder, contents ctx.public, contents ctx.witness)

(* The balanced fold, online: a binary counter of perfectly-aligned
   merge subtrees. The stack holds complete subtrees of strictly
   increasing size (head = smallest); pushing a leaf merges equal-sized
   neighbors eagerly, exactly like adding 1 to a binary counter. Every
   subtree covers leaves [start, start + size) with [size] a power of
   two and [start] a multiple of [size] — i.e. it is precisely the node
   the level-by-level fold builds over that leaf range, so eager merges
   and the final carry merges reproduce its tree shape (and therefore
   its bytes) node for node: a level-by-level level-[k] pass pairs
   aligned size-2^k blocks, which is the same set of merges the
   counter performs when the second block of a pair completes; the
   odd trailing block a level carries up unchanged is the same block
   the counter leaves on its stack for [finish] to fold in. [finish]
   right-associates the leftover stack smallest-first — merging a
   larger left block onto the accumulated tail is exactly the
   carried-element chain of the trailing odd nodes. *)

type 'a node = {
  res : ('a, string) result;
  size : int; (* leaves covered; a power of two except inside finish *)
  start : int; (* index of the first covered leaf *)
}

type 'a t = {
  merge : 'a -> 'a -> ('a, string) result;
  mutable stack : 'a node list; (* newest/smallest first *)
  mutable count : int;
  mutable eager_merges : int;
  (* Failed merges, keyed by the (level, pair) position the same merge
     occupies in the level-by-level fold's level-order execution. *)
  mutable failures : ((int * int) * string) list;
}

let create ~merge =
  { merge; stack = []; count = 0; eager_merges = 0; failures = [] }

let eager_merges a = a.eager_merges
let pending_merges a = max 0 (List.length a.stack - 1)

let rec log2 s = if s <= 1 then 0 else 1 + log2 (s / 2)

(* The left child of any merge we perform covers [start, start+size)
   with size a power of two and start size-aligned, which in the
   level-by-level fold is pair [start / (2*size)] of level
   [log2 size]. Failures are reported by minimum (level, pair): the
   merges the counter runs that the level-by-level fold would have
   skipped (levels above its first failure) all have strictly larger
   keys, so the minimum is the error the level-by-level fold
   reports. *)
let do_merge a left right =
  let size = left.size + right.size and start = left.start in
  match (left.res, right.res) with
  | Ok l, Ok r -> (
    match a.merge l r with
    | Ok m -> { res = Ok m; size; start }
    | Error e ->
      let key = (log2 left.size, left.start / (2 * left.size)) in
      a.failures <- (key, e) :: a.failures;
      { res = Error e; size; start })
  | (Error _ as e), _ | _, (Error _ as e) ->
    (* Propagate without merging; the originating failure is already
       recorded under its own key. *)
    { res = e; size; start }

let push a x =
  let leaf = { res = Ok x; size = 1; start = a.count } in
  a.count <- a.count + 1;
  let rec settle node = function
    | top :: rest when top.size = node.size ->
      a.eager_merges <- a.eager_merges + 1;
      settle (do_merge a top node) rest
    | stack -> node :: stack
  in
  a.stack <- settle leaf a.stack

let first_failure a =
  List.fold_left
    (fun best (k, e) ->
      match best with
      | Some (bk, _) when bk <= k -> best
      | _ -> Some (k, e))
    None a.failures

let finish a =
  match a.stack with
  | [] -> Error "fold_balanced: empty transition list"
  | smallest :: rest -> (
    (* Carry chain: fold the remaining blocks smallest-first, each
       larger block becoming the left child — the trailing-odd-element
       chain of the level-by-level fold, at most ⌈log₂ count⌉ merges.
       Does not consume the stack, so a fold can be finished, extended
       and finished again (certificate rebuild after a lost cert). *)
    let top = List.fold_left (fun acc b -> do_merge a b acc) smallest rest in
    match top.res with
    | Ok t -> Ok t
    | Error _ -> (
      match first_failure a with
      | Some (_, e) -> Error e
      | None -> assert false))

(* The batch balanced fold: the Fig. 10 merge tree built level by
   level, the reference [Zen_snark.Fold] (and through it the node's
   proving pipeline and certificate aggregation) must reproduce byte
   for byte. Each pass merges adjacent pairs, halving the list; an odd
   trailing element is carried up unchanged. The pairs of one level
   share no state, so a level is a parallel map on [pool]; the result,
   and on failure the first error in pair order, is the same for every
   domain count because the pairing is positional and [merge] is
   deterministic. *)

open Zen_crypto
open Zen_snark

let levels ?(pool = Pool.sequential) ~merge = function
  | [] -> Error "fold_balanced: empty transition list"
  | xs ->
    let rec level arr =
      let n = Array.length arr in
      if n = 1 then Ok arr.(0)
      else begin
        let pairs = n / 2 in
        let merged =
          Pool.init_array pool pairs (fun i ->
              merge arr.(2 * i) arr.((2 * i) + 1))
        in
        let rec first_error i =
          if i >= pairs then None
          else
            match merged.(i) with
            | Error e -> Some e
            | Ok _ -> first_error (i + 1)
        in
        match first_error 0 with
        | Some e -> Error e
        | None ->
          level
            (Array.init
               ((n + 1) / 2)
               (fun i ->
                 if i < pairs then Result.get_ok merged.(i) else arr.(n - 1)))
      end
    in
    level (Array.of_list xs)

let fold_balanced ?pool sys = levels ?pool ~merge:(Recursive.merge sys)

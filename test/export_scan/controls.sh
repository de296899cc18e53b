#!/bin/sh
# Negative controls for the typed export scan (export_scan.ml beside
# this file). Each control changes a throwaway copy of the working tree
# and expects the scan to exit non-zero and name what the change
# planted; the unchanged copy must pass. Run from the repository root:
#
#   sh test/export_scan/controls.sh
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git ls-files -co --exclude-standard | tar -cf - -T - | tar -xf - -C "$tmp"
cd "$tmp"
scan=./_build/default/test/export_scan/export_scan.exe

expect_fail () { # control name, text the scan must print
  if "$scan" > scan.out 2>&1; then
    echo "control $1: the scan exited 0" >&2
    cat scan.out >&2
    exit 1
  fi
  if ! grep -qF "$2" scan.out; then
    echo "control $1: the scan did not report: $2" >&2
    cat scan.out >&2
    exit 1
  fi
  echo "control $1: exit 1, reports: $2"
}

save () { for f in "$@"; do cp "$f" "$f.orig"; done; }
restore () { for f in "$@"; do mv "$f.orig" "$f"; done; }

# A plain build writes no .cmt for executables, so their callers would
# go unseen: the scan refuses to run.
dune build
expect_fail plain-build "_build/default/bin has no .cmt"

dune build @check ./test/export_scan/export_scan.exe
"$scan" > /dev/null
echo "control none: exit 0 on the unchanged tree"

# A val that only test/ calls.
save lib/sim/faults.ml lib/sim/faults.mli test/t_faults.ml
echo 'let planted () = 0' >> lib/sim/faults.ml
printf '\nval planted : unit -> int\n' >> lib/sim/faults.mli
echo 'let _ = Zen_sim.Faults.planted ()' >> test/t_faults.ml
dune build @check
expect_fail test-only "lib/sim/faults.mli: planted has no caller outside test/"
restore lib/sim/faults.ml lib/sim/faults.mli test/t_faults.ml

# A val of a nested module signature.
save lib/sim/faults.ml lib/sim/faults.mli
echo 'module Nested = struct let planted () = 0 end' >> lib/sim/faults.ml
printf '\nmodule Nested : sig val planted : unit -> int end\n' >> lib/sim/faults.mli
dune build @check
expect_fail nested "lib/sim/faults.mli: Nested.planted has no caller outside test/"
restore lib/sim/faults.ml lib/sim/faults.mli

# A scan that does not follow module aliases misses the callers that
# reach a val only through one: perfbench's [module H = Zen_sim.Harness]
# and Schnorr's [module S = Ec.Scalar].
save test/export_scan/export_scan.ml
sed 's/| Some id, Some p -> Hashtbl.replace aliases id p/| Some _, Some _ -> ()/' \
  test/export_scan/export_scan.ml.orig > test/export_scan/export_scan.ml
if cmp -s test/export_scan/export_scan.ml test/export_scan/export_scan.ml.orig; then
  echo "control alias: the alias table line was not found" >&2
  exit 1
fi
dune build @check ./test/export_scan/export_scan.exe
expect_fail alias "lib/sim/harness.mli: force_reorg has no caller outside test/"
expect_fail alias "lib/crypto/ec.mli: Scalar.mul has no caller outside test/"
restore test/export_scan/export_scan.ml

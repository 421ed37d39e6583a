#!/usr/bin/env bash
# Build copbench offline against the vendored stand-ins, then run it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run
#   benchmark/run.sh [--seed N]                                      all workloads, both modes
#   benchmark/run.sh --selfcheck                                     the suite twice, compared
#
# Call it from anywhere; results and traces land in benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# A relative CARGO_TARGET_DIR is meant relative to where we were called
# from, not to the package directory the build runs in.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Run from the package directory so that cargo reads .cargo/config.toml
# (the source replacement) and no configuration of the caller's. The
# build log goes to stderr: stdout carries only the benchmark's result.
(cd "$here" && cargo build --release --offline --quiet) >&2

exec "$target/release/copbench" --out-dir "$here/out" "$@"

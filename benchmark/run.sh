#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): build lwbench from source, then run
# one workload. Called from the root of a checkout as
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# `--trace 1` runs the lwbench-traced binary, the only one with the counting
# allocator installed. Any other lwbench argument (--repeat, --check, --quick)
# passes through.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Cargo resolves a relative CARGO_TARGET_DIR against the directory it is
# started from, which is also where the binaries are looked up below.
target="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

bin=lwbench
prev=""
for arg in "$@"; do
    if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then
        bin=lwbench-traced
    fi
    prev="$arg"
done
exec "$target/release/$bin" "$@"

#!/usr/bin/env bash
# The repo benchmark. Builds the root workspace's `banks` binary and this
# directory's harness in release mode (build time is not measured), then
# runs the workloads and prints every metric; the last line of standard
# output is the result object BENCHMARK.json's contract asks for.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#                    [--traced] [--smoke]
#
# Without --workload all four run in turn. Run from the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# One target directory for both builds; a relative CARGO_TARGET_DIR is
# taken from the repository root.
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    case "${args[i]}" in
        --traced) trace=1 ;;
        --trace) trace="${args[i + 1]:-0}" ;;
    esac
done

# Rebuild only when a source is newer than the binary. Plain `cargo build`
# cannot be used for this check: outside a git checkout `banks-util`'s
# build script (it watches `.git/HEAD`) reruns every time and the whole
# workspace recompiles, ~30 s per invocation.
stale() { # stale BINARY SOURCES…
    [ ! -x "$1" ] || [ -n "$(find "${@:2}" -newer "$1" -print -quit)" ]
}
if stale "$target/release/banks" Cargo.toml Cargo.lock crates; then
    cargo build --release --offline --manifest-path Cargo.toml -p banks-cli >&2
fi
sources=(benchmark/Cargo.toml benchmark/Cargo.lock benchmark/src Cargo.toml crates)
if stale "$target/release/harness" "${sources[@]}"; then
    cargo build --release --offline --manifest-path benchmark/Cargo.toml --bin harness >&2
fi
# The layer probe calls into the crates' internals, so it is built apart
# from the harness and only when a traced run needs it: an API change can
# break it without taking the end-to-end numbers down.
if [ "$trace" = 1 ] && stale "$target/release/layerprobe" "${sources[@]}"; then
    cargo build --release --offline --manifest-path benchmark/Cargo.toml --bin layerprobe >&2
fi

BENCH_GIT_SHA="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_GIT_SHA
exec "$target/release/harness" \
    --banks "$target/release/banks" \
    --layerprobe "$target/release/layerprobe" \
    --out "$here/out" "$@"

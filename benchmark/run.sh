#!/usr/bin/env bash
# Build the benchmark from source (offline, into $CARGO_TARGET_DIR or the
# repo's own target/) and run it from the repo root with the arguments
# given: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`,
# `--all`, or `--check-repeat`. See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/hmc-benchmark" "$@"

#!/usr/bin/env bash
# Builds the release `simcov` binary and the benchmark, then runs one
# workload. Run from the repository root:
#
#   bash simbench/run.sh --workload dlx_cli_jobs --seed 1 --seconds 10 --trace 0
#   bash simbench/run.sh --selftest     # the benchmark's own tests
#
# Build output goes to $CARGO_TARGET_DIR (default: target). Everything the
# benchmark writes stays under .simbench/ in the current directory.
set -euo pipefail

target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --locked --quiet --manifest-path Cargo.toml -p simcov-cli
cargo build --release --offline --locked --quiet --manifest-path simbench/Cargo.toml
simcov="$target/release/simcov"

if [[ "${1:-}" == "--selftest" ]]; then
    SIMBENCH_SIMCOV="$simcov" exec cargo test --release --offline --locked \
        --manifest-path simbench/Cargo.toml
fi
exec "$target/release/simbench" --simcov "$simcov" "$@"

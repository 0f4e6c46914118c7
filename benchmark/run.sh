#!/usr/bin/env bash
# The repo's benchmark. Builds the benchmark package (release, offline)
# and hands every argument to it:
#
#   benchmark/run.sh                      every workload: 5 untraced runs + 1 traced
#   benchmark/run.sh --smoke              tiny sizes, two seeds, plus fmt/clippy/test
#   benchmark/run.sh --aa                 two sets of 10 seeds, compared cell by cell
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1    one run
#
# See benchmark/README.md.
set -euo pipefail

cd "$(dirname "$0")/.."

# One target directory for every cargo call below, inside the checkout
# and ignored by git. (benchmark/.cargo/config.toml says the same to
# anyone running cargo by hand from inside benchmark/.)
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
manifest=benchmark/Cargo.toml

# Build output goes to stderr so that stdout carries only results.
cargo build --release --offline --manifest-path "$manifest" 1>&2

MCBENCH_RUSTC="$(rustc --version)"
export MCBENCH_RUSTC
bin="$CARGO_TARGET_DIR/release/mcbench"

case " $* " in
*" --workload "*) ;;
*" --smoke "*)
    # The suite-level smoke also holds the benchmark's own code to the
    # repo's gates.
    cargo fmt --manifest-path "$manifest" --check 1>&2
    cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings 1>&2
    cargo test --offline --manifest-path "$manifest" -q 1>&2
    ;;
esac

exec "$bin" "$@"

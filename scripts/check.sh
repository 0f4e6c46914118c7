#!/usr/bin/env sh
# Tier-1 gate: everything a PR must keep green.
# Run from the repository root: ./scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

# section TITLE: print the wall time of the section before it, then open
# TITLE; with no TITLE, close the last section and print the total.
# (sh has no locals and `gate` below sets `t`, hence the `run_` prefix.)
run_start=$(date +%s) run_section_start=
section() {
    run_now=$(date +%s)
    [ -z "$run_section_start" ] || echo "-- $((run_now - run_section_start)) s"
    run_section_start=$run_now
    if [ $# -gt 0 ]; then echo "== $1"; else echo "-- total $((run_now - run_start)) s"; fi
}

section "cargo fmt --check"
cargo fmt --check

section "cargo build --release"
cargo build --release --offline

section "cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

section "the emission path takes no lock (a dispatch owns its region's telemetry buffer)"
! grep -nE 'Mutex|telemetry::lock' crates/netsim/src/ctx.rs crates/netsim/src/region.rs || exit 1

section "cargo test -q"
cargo test -q --offline

section "indexed deadlines vs the full scan, release profile (next_deadline's own check is compiled out there)"
cargo test -q --offline --release -p pim -p cbt -p dvmrp -p igmp --lib indexed_deadline

section "allocation budgets, release profile (exact counts: 0 per Query delivery, constant per Query tick; warm sinks 0 per event, the causal index only to grow; a 2000-router internet's oracle tables keep <= 2 MiB; a clean explorer case's allocations and peak live bytes)"
cargo test -q --offline --release -p node --test alloc_budget
cargo test -q --offline --release -p telemetry --test alloc_budget
cargo test -q --offline --release -p unicast --test alloc_budget
cargo test -q --offline --release -p scenario --test alloc_budget

section "shortest-path kernel, oracle tables (and every table of a 2000-router internet against the streamed build), the Fig. 2 tree walk, trace-line text, the causal index's finger and flight tails, JSONL bytes and coverage vs their references, the decimal and dotted-quad writers vs std, release profile (the hot loops are where debug and release differ)"
cargo test -q --offline --release -p graph --test proptest_algo
cargo test -q --offline --release -p unicast --test proptest_oracle --test oracle_scale
cargo test -q --offline --release -p mctree
cargo test -q --offline --release -p scenario --test trace_render_pins --test flight_tail
cargo test -q --offline --release -p telemetry --test causal_finger --test sink_equivalence
cargo test -q --offline --release -p wire --test text_writers

section "cargo doc --no-deps (warnings denied; public items, then private items too)"
# The public run flags public docs that link to private items; the
# private-items run flags broken links in the private docs.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline --quiet
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline --quiet --document-private-items

section "cargo check benchmark/ (the frozen consumer of the public API; --locked: a new dependency edge fails here instead of rewriting its committed Cargo.lock)"
(cd benchmark && cargo check --offline --locked --all-targets)

section "benchmark sim_stats vs benchmark/baseline.json (same work, whatever the speed)"
./scripts/sim_stats.sh

# gate NAME PATTERN CMD...: the parallel-core contract, checked end to
# end on a real binary. CMD runs at --threads 1, 2 and 4; its output
# lines matching PATTERN (thread count masked) must exist, be
# byte-identical at every width, and contain no FAIL. On the 2-CPU
# reference host 2 is a thread per CPU (the crew's waits end in the spin
# stage) and 4 is oversubscribed (the yield and park stages). Every run
# is under `timeout`, so a lost wake-up fails the gate by name instead
# of stalling tier-1.
gate() {
    name=$1 pattern=$2
    shift 2
    for t in 1 2 4; do
        timeout 300 "$@" --threads "$t" >"target/check/$name-raw.txt" ||
            { echo "$name failed (or hung for 300 s) at --threads $t"; exit 1; }
        grep -e "$pattern" "target/check/$name-raw.txt" | sed 's/threads=[0-9]*//' \
            >"target/check/$name-${t}t.txt" || true
    done
    [ -s "target/check/$name-1t.txt" ] || { echo "$name printed no '$pattern' lines"; exit 1; }
    for t in 2 4; do
        cmp "target/check/$name-1t.txt" "target/check/$name-${t}t.txt" ||
            { echo "$name diverged between --threads 1 and --threads $t"; exit 1; }
    done
    ! grep -q FAIL "target/check/$name-1t.txt" || { echo "$name: oracle violations"; exit 1; }
}

section "determinism: --threads 1 vs --threads 2 vs --threads 4"
mkdir -p target/check
gate fig2a '' ./target/release/fig2a --trials 4
gate fig2b '' ./target/release/fig2b --smoke
# Figure stdout, byte for byte against crates/bench/pins/ (a pin is named
# after its command): Fig. 2's rows as recorded before the tree walk, and
# every protocol configuration and the capped-link path of `run_protocol_sim_opts`.
# The explorer's chaos summary, the random-vs-guided search table and the
# fuzz smoke's reject taxonomy and per-protocol absorption lines are
# pinned the same way.
for cmd in 'fig2a --quick' 'fig2b --quick' fig1 'overhead --trials 2 --congestion' \
    'spt_switch --seed 7' 'ablation --trials 2' \
    'explore 6 0 --corpus corpus' 'search compare --budget 12' 'fuzz smoke'; do
    pin=crates/bench/pins/$(echo "$cmd" | sed 's/ -*/_/g').txt
    ./target/release/$cmd | cmp - "$pin" || { echo "$cmd differs from $pin"; exit 1; }
done
# Causal provenance too: the full `trace why` report (backward slices,
# critical paths, blast radii, causal-index fingerprint) on every pin,
# byte-identical at every width and against its text in
# crates/bench/pins/trace_why_<pin>.txt.
for pin in corpus/*.replay; do
    gate "why-$(basename "$pin" .replay)" '' ./target/release/trace why "$pin"
done
for pin in corpus/*.replay; do
    why=$(basename "$pin" .replay)
    cmp "target/check/why-$why-1t.txt" "crates/bench/pins/trace_why_$why.txt" ||
        { echo "trace why $pin differs from crates/bench/pins/trace_why_$why.txt"; exit 1; }
done
# Scale: all three protocols over 500 routers / 10^4 aggregate members,
# full oracle battery including the site-scaled state bound.
gate smoke-hier 'PASS\|FAIL' ./target/release/smoke hier
# Congestion: flash-crowd and RP-overload under a capped RP-side link;
# bounded queues, no control starvation, post-heal recovery, and the
# printed drop/mark/peak counters thread-invariant.
gate smoke-overload 'PASS\|FAIL' ./target/release/smoke overload
# Both smokes' rows (event counts, drops, marks, queue depths), byte for
# byte against crates/bench/pins/: the aggregate host path's record.
for name in hier overload; do
    cmp "target/check/smoke-$name-1t.txt" "crates/bench/pins/smoke_$name.txt" ||
        { echo "smoke $name rows differ from crates/bench/pins/smoke_$name.txt"; exit 1; }
done
# The case telemetry through a real binary: the regression corpus
# replayed byte for byte, then 18 explorer cases with the JSONL and
# metrics sinks attached; the chaos summary (impairments and decode drops by kind and
# the join-latency and reconvergence histograms, all from each case's
# metrics sink, merged per protocol) must not depend on the width.
gate explore '' ./target/release/explore 6 0 --corpus corpus
echo "determinism + smokes: OK"

section "fuzz smoke"
./scripts/fuzz.sh smoke

section "search smoke"
# Coverage-guided search gate: replay the committed regression corpus
# byte-identically, self-test the shrinker (determinism + 1-minimality)
# on a known violating fixture, and run a bounded guided search.
./scripts/search.sh smoke

section "non-test code lines per crate (report only)"
./scripts/loc.sh

section
echo "tier-1: OK"

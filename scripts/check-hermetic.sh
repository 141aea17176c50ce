#!/usr/bin/env sh
# Verifies the workspace builds and tests entirely offline — the
# guarantee the hermetic-build policy (see ROADMAP.md) makes. Run from
# anywhere; it cd's to the repo root. A clean `target/` is the strongest
# check: `rm -rf target` first to prove no cached registry artifact is
# being relied on.
set -eu
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo build --workspace --release --offline"
cargo build --workspace --release --offline

echo "==> cargo test -q --workspace --offline"
cargo test -q --workspace --offline

echo "==> cargo test -q --release --offline --manifest-path perfbench/Cargo.toml (layer-by-layer composition = run_benchmark / run_oracle, byte-identical)"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --workspace --offline --all-targets -- -D warnings"
cargo clippy --workspace --offline --all-targets -- -D warnings

echo "==> RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps --offline"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo test -q --offline --test ast_footprint (bytes the daemon's parse layer retains for the population)"
cargo test -q --offline --test ast_footprint -- --nocapture

echo "==> cargo test -q --offline --test corpus_determinism"
cargo test -q --offline --test corpus_determinism

echo "==> aji-oracle --seed 1 --cases 50 (smoke: a healthy build fuzzes clean)"
./target/release/aji-oracle --seed 1 --cases 50

echo "==> aji-oracle determinism (same seed, threads 1 vs 4, byte-identical)"
./target/release/aji-oracle --seed 1 --cases 50 --json --threads 1 > target/oracle-t1.json
./target/release/aji-oracle --seed 1 --cases 50 --json --threads 4 > target/oracle-t4.json
cmp target/oracle-t1.json target/oracle-t4.json
./target/release/aji-oracle --seed 1 --cases 50 --json --threads 1 > target/oracle-rerun.json
cmp target/oracle-t1.json target/oracle-rerun.json

echo "==> ablations determinism (threads 1 vs 2, byte-identical)"
./target/release/ablations --threads 1 > target/ablations-t1.txt
./target/release/ablations --threads 2 > target/ablations-t2.txt
cmp target/ablations-t1.txt target/ablations-t2.txt

echo "==> flight-recorder trace determinism (two deterministic runs, byte-identical)"
./target/release/aji-report --project webframe-app --dynamic --deterministic \
    --chrome-trace target/trace-1.json > /dev/null
./target/release/aji-report --project webframe-app --dynamic --deterministic \
    --chrome-trace target/trace-2.json > /dev/null
cmp target/trace-1.json target/trace-2.json

echo "==> cargo test -q --offline --test trace_determinism (threads 1 vs 4 + recorder-off invariance)"
cargo test -q --offline --test trace_determinism

echo "==> aji-serve daemon smoke (warm = cold byte-identical for analyze and oracle, invalidate, clean shutdown)"
SOCK=target/aji-serve-smoke.sock
STORE=target/aji-serve-smoke-store.json
rm -f "$SOCK" "$STORE"
./target/release/aji-serve --socket "$SOCK" --store "$STORE" &
SERVE_PID=$!
i=0
while [ ! -S "$SOCK" ]; do
    i=$((i + 1))
    [ "$i" -le 100 ] || { echo "error: daemon socket never appeared"; exit 1; }
    sleep 0.1
done
./target/release/aji-serve --client "$SOCK" --op analyze --name webframe-app > target/serve-cold.json
./target/release/aji-serve --client "$SOCK" --op analyze --name webframe-app > target/serve-warm.json
cmp target/serve-cold.json target/serve-warm.json
./target/release/aji-serve --client "$SOCK" --op invalidate --name webframe-app --path index.js > /dev/null
./target/release/aji-serve --client "$SOCK" --op analyze --name webframe-app > target/serve-after.json
cmp target/serve-cold.json target/serve-after.json
./target/release/aji-serve --client "$SOCK" --op stats > target/serve-stats.json
grep -q '"response_hits":1' target/serve-stats.json || {
    echo "error: expected exactly one response-layer hit"; cat target/serve-stats.json; exit 1; }
grep -q '"response_misses":2' target/serve-stats.json || {
    echo "error: expected two response-layer misses (cold + post-invalidate)"; cat target/serve-stats.json; exit 1; }
grep -q '"invalidations":1' target/serve-stats.json || {
    echo "error: expected one recorded invalidation"; cat target/serve-stats.json; exit 1; }
./target/release/aji-serve --client "$SOCK" --op oracle --name webframe-app > target/serve-oracle-cold.json
./target/release/aji-serve --client "$SOCK" --op oracle --name webframe-app > target/serve-oracle-warm.json
cmp target/serve-oracle-cold.json target/serve-oracle-warm.json
./target/release/aji-serve --client "$SOCK" --op shutdown > /dev/null
wait "$SERVE_PID"
[ -f "$STORE" ] || { echo "error: shutdown did not persist the hint store"; exit 1; }
[ ! -S "$SOCK" ] || { echo "error: daemon left its socket behind"; exit 1; }

echo "==> serve-bench warm/cold gate (warm >= 3x faster, responses byte-identical)"
./target/release/serve-bench --require-speedup 3 --iters 3

echo "==> aji-report --diff serve gate (fresh serve metrics vs committed BENCH_pr9_serve.json)"
./target/release/serve-bench --json --iters 3 > target/serve-bench.json
./target/release/aji-report --diff BENCH_pr9_serve.json target/serve-bench.json --tolerance 900

echo "==> aji-quant determinism (threads 1 vs 4 + rerun, byte-identical)"
./target/release/aji-quant --json --threads 1 > target/quant-t1.json
./target/release/aji-quant --json --threads 4 > target/quant-t4.json
cmp target/quant-t1.json target/quant-t4.json
./target/release/aji-quant --json --threads 1 > target/quant-rerun.json
cmp target/quant-t1.json target/quant-rerun.json

echo "==> aji-report --diff quant gate (fresh quant report vs committed BENCH_pr10_quant.json)"
./target/release/aji-report --diff BENCH_pr10_quant.json target/quant-t1.json

echo "==> aji-report --diff detects an injected counter regression (must exit non-zero)"
sed 's/"dynamic_edges":659,/"dynamic_edges":658,/' target/quant-t1.json > target/quant-tampered.json
cmp -s target/quant-t1.json target/quant-tampered.json && {
    echo "error: tamper sed did not change dynamic_edges"; exit 1; }
if ./target/release/aji-report --diff BENCH_pr10_quant.json target/quant-tampered.json; then
    echo "error: --diff passed a tampered counter"; exit 1
fi

echo "ok: workspace builds, tests, lints and docs clean with no network access"

#!/usr/bin/env bash
# Tier-1 verification, fully offline: the workspace has no external
# dependencies (everything lives in crates/runtime), so --offline must
# always succeed — any network fetch is a regression.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo clippy --offline --workspace --all-targets -- -D warnings
cargo build --release --offline --workspace
cargo test -q --offline --workspace

# Docs: every intra-doc link must resolve, private items included, so a
# link to a deleted or renamed item fails here instead of rotting.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --document-private-items

# Grouping against the paper's definition: AG-TS/AG-TR groupings and
# audit reports must equal the connected components of the exact dense
# affinity/dissimilarity matrices — all pairs, unblocked and unpruned —
# and the decision edges must equal the pairs those matrices accept,
# values bit for bit (so a pair blocking dropped fails too), at 1 and 4
# worker threads (run explicitly so a failure is attributable at a
# glance; ag_tr_equivalence holds AG-TR on the paper-scale and 202-group
# campaigns, blocked_equivalence the rest). The 3 000-account
# ScaledCampaign case is too slow for a debug build and runs here in
# release. EpochEngine::run_epoch's incremental
# union-find regrouping must publish snapshots identical to a reference
# engine that re-groups from scratch, across multi-epoch arrival
# schedules, and the engine-owned edge index must return, epoch by epoch,
# exactly the dense matrix's accepted pairs that touch a dirty account
# (out-of-order reports, AG-TS order rebuilds, empty epochs).
cargo test -q --offline --test blocked_equivalence
cargo test -q --offline --test ag_tr_equivalence
cargo test -q --release --offline --test blocked_equivalence -- --ignored
cargo test -q --offline --test incremental_group
cargo test -q --offline --test edge_index

# Golden bit pins: Algorithm 2's results (every aggregation, cold and
# warm, at 1 and 4 threads, on the 4-task Table I as well as on campaigns
# of 64 tasks and more), an epoch replay's rendered snapshots, the
# account-level algorithms' results and the fingerprints with AG-FP's
# labels must hash to digests recorded once, so a change that moves both
# sides of an equivalence pair at once still fails.
cargo test -q --offline --test golden_bits

# Pool vs inline dispatch equivalence: the persistent worker pool and the
# inline fallback (reached by holding the pool's dispatch token, as a
# nested or concurrent region does) must produce outputs byte-identical
# to the 1-worker run — maps, reductions, feature batches, nested and
# concurrent regions — at 1, 2 and 4 workers, propagate job panics, and
# stay identical when recycled scratch arenas start poisoned; a nested
# region must run on its outer job's thread.
cargo test -q --offline --test pool_equivalence

# Observability smoke: an instrumented run must export JSON that the
# runtime's own parser accepts (obs-check validates shape and parse,
# including the retained telemetry windows under `history`).
obs_json="$(mktemp /tmp/srtd-obs.XXXXXX.json)"
bench_json="$(mktemp /tmp/srtd-bench.XXXXXX.json)"
trap 'rm -f "$obs_json" "$bench_json"' EXIT
SRTD_OBS=1 SRTD_OBS_JSON="$obs_json" \
  cargo run -q --release --offline --bin srtd -- \
  evaluate --seed 0 --legit 4 --tasks 4 >/dev/null
cargo run -q --release --offline --bin obs-check -- "$obs_json"

# Bench smoke: the quick pipeline bench must run offline, its framework
# output must be byte-identical across worker counts (asserted inside the
# binary), and the exported JSON must match the tracked schema
# (bench_check fails on drift).
cargo run -q --release --offline -p srtd-bench --bin bench_pipeline -- "$bench_json" >/dev/null
cargo run -q --release --offline -p srtd-bench --bin bench_check -- "$bench_json"

# Server smoke: spawn srtd-server on an ephemeral loopback port, POST a
# report batch, run two epochs (the second must warm-start in ≤2
# iterations), GET truths/groups/metrics as well-formed JSON, scrape the
# telemetry timeline (/metrics/history?n=2 must return two windows whose
# epoch-counter deltas sum to the cumulative /metrics values, /trace must
# name the fold/regroup/discover/swap stages, /metrics?format=prom must
# expose the counter families), and shut down cleanly (server-check
# drives the sequence and checks exit status). The second phase replays
# a Sybil-ring ingest schedule over POST /epoch and asserts the HTTP
# snapshots, re-grouped incrementally, are bit-identical to an
# in-process engine that re-groups from scratch under the server's Wi-Fi
# admission rules; the third drives timer epochs; the fourth sends an
# oversized Content-Length (413), an over-long header line (431), an
# 8 MiB JSON string body (400 within the 5 s reply timeout: the string
# scan must be linear), a non-UTF-8 body, a `01` account, a report
# missing a field, a repeated `reports` key, a repeated Content-Length
# and a `+61` one (400 each, nothing buffered) and an out-of-range
# account (a per-report rejection), and asserts the server keeps
# serving; the fifth posts values 20, -120 and 0 and an equal then a
# backwards timestamp for one account, and asserts the 20 and the
# backwards report are refused with IngestError's reasons and only the
# other three are buffered.
cargo run -q --release --offline --bin server-check -- target/release/srtd-server

# Benchmark harness: perfbench/loadgen is its own workspace with path
# dependencies on crates/*, so building and self-testing it here makes a
# library API change that breaks the harness fail this script rather
# than the benchmark run.
cargo test -q --release --offline --manifest-path perfbench/loadgen/Cargo.toml

# Adaptive-adversary audit: a threshold-evading ring (camouflage +
# replay jitter) must slip past trajectory grouping yet be convicted by
# the deterministic stochastic audit, bit-identically across worker
# thread counts (run explicitly so a failure is attributable).
cargo test -q --offline --test adaptive_audit

# Adaptive matrix smoke: the attack x defense sweep must hold its shape
# (zero honest FPR, grouping crushes replay rings, the audit backstop
# dominates on mimicry) in the trimmed --fast configuration; the shape
# checks are asserted inside the binaries.
cargo run -q --release --offline -p srtd-bench --bin exp_adaptive -- --fast >/dev/null
cargo run -q --release --offline -p srtd-bench --bin exp_adaptive_jitter -- --fast >/dev/null

# Worked examples and the account-level extensions, byte for byte: Table I
# (CRH over the per-task claims), Table IV (the device catalog), Figs. 3-4
# (AG-TS's affinities and AG-TR's raw DTW costs), the TD family under
# attack (Mean, Median, CRH, CATD, GTM, RobustCRH vs TD-TR), CRH's weight
# flows, the adaptive attack strategies, the large-scale Sybil sweep and
# the AG-FP experiments (Figs. 2 and 8 with their seed-set checks, the
# feature and clustering ablations, fingerprint stability) must print
# exactly what results/ records, so a change that moves a number has to
# regenerate the file. Each binary also asserts its own shape check.
for exp in exp_table1 exp_table4 exp_fig3_fig4 exp_td_family exp_weights \
  exp_attack_strategies exp_large_scale exp_fig2 exp_fig8 \
  exp_ablation_features exp_ablation_clustering exp_fingerprint_stability; do
  cargo run -q --release --offline -p srtd-bench --bin "$exp" | diff -u "results/$exp.txt" -
done

echo "verify: OK"

#!/usr/bin/env bash
# CI gate: formatting, lints, then the tier-1 build-and-test pass.
# Run from the repository root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy -p tc-algos -- -D warnings (intersection engine, standalone gate)"
cargo clippy -p tc-algos --all-targets -- -D warnings

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> every crate's unit and integration tests: cargo test --workspace -q"
cargo test --workspace -q

echo "==> service smoke test (ephemeral port, one query per endpoint)"
cargo run --release -q --example service_demo

echo "==> persistence smoke test (snapshot -> restart -> warm load, WAL replay)"
cargo run --release -q --example persist_demo

echo "==> analytics smoke test (push subscriptions, incremental read paths)"
cargo run --release -q --example analytics_demo

echo "==> serve-bench smoke test (cold/warm/restart passes + contended shard sweep)"
cargo run --release -q -p tc-bench --bin experiments -- serve-bench --small --shards=1,2 --clients=4

echo "==> stream smoke test (incremental vs recompute, small suite)"
cargo run --release -q -p tc-bench --bin experiments -- stream-bench --small

echo "==> cpu kernel smoke test (every kernel x ordering, small suite)"
cargo run --release -q -p tc-bench --bin experiments -- cpu-bench --small

echo "==> ci.sh: all green"

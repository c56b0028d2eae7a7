#!/usr/bin/env bash
# Builds the suite (release, offline) and runs it. Every argument goes to
# the program; see README.md. Build output goes to stderr so that stdout
# carries only results.
set -euo pipefail
dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$dir/target}/release/smpi-benchmark" "$@"

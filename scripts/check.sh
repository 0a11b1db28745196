#!/usr/bin/env bash
#
# Tier-1 verification, twice: a plain build+test pass, then an
# AddressSanitizer pass (catches the lifetime/buffer bugs the chaos
# suite is designed to provoke). Run from the repo root:
#
#   scripts/check.sh [extra ctest args...]
#
# Optionally set DSI_CHECK_TSAN=1 to add a ThreadSanitizer pass over
# the concurrency-sensitive suites (slower; chaos + parallel + MPMC),
# and DSI_CHECK_UBSAN=1 to add an UndefinedBehaviorSanitizer pass over
# every suite (any report aborts its test).

set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

run_pass() {
    local build_dir="$1"
    local sanitize="$2"
    shift 2
    echo "==> configure ${build_dir} (DSI_SANITIZE='${sanitize}')"
    cmake -B "${build_dir}" -S . -DDSI_SANITIZE="${sanitize}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    echo "==> build ${build_dir}"
    cmake --build "${build_dir}" -j "${JOBS}" >/dev/null
    echo "==> test ${build_dir}"
    (cd "${build_dir}" && ctest --output-on-failure -j "${JOBS}" "$@")
}

# Pass 1: plain tier-1.
run_pass build "" "$@"

# Pass 2: ASan.
run_pass build-asan address "$@"

# Optional pass 3: TSan over the threaded suites.
if [[ "${DSI_CHECK_TSAN:-0}" == "1" ]]; then
    run_pass build-tsan thread \
        -R '(common_concurrency|common_overload|common_trace|dpp_chaos|dpp_parallel|dpp_overload|dpp_trace|dpp_recovery|sched_fleet|storage_heal|dedup_differential|dwrf_encoding|transforms)_test' "$@"
fi

# Optional pass 4: UBSan over every suite.
if [[ "${DSI_CHECK_UBSAN:-0}" == "1" ]]; then
    run_pass build-ubsan undefined "$@"
fi

# Bench smoke: a --quick codec_bench run, failing only on a non-zero
# exit (no thresholds here; the dedup storage-savings bar is a ctest
# in dwrf_dedup_test, and a full codec_bench run enforces the decode
# speedup bar).
echo "==> bench smoke (codec_bench --quick)"
cmake --build build --target codec_bench -j "${JOBS}" >/dev/null
./build/bench/codec_bench --quick >/dev/null

echo "==> all passes green"

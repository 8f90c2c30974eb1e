#!/usr/bin/env bash
# Dead-code audit: list library functions that no production binary
# reaches.
#
# Builds the tree at -O0 without inlining, one section per function, and
# links every binary with --gc-sections, so a binary keeps exactly the
# functions it can call. The report is the defined text symbols (T/W) in
# namespace choir:: of the static libraries, minus every symbol still
# present in a production binary (everything built from src/, bench/,
# examples/ and tools/; test binaries do not count), minus the keep-set
# below. What remains is code that only tests reach, or nothing does.
# Standard-library templates instantiated for choir types (demangled as
# "choir::T std::f<...>(...)") are not library code and are skipped.
#
# Usage: tools/dead_symbols.sh [BUILD_DIR]    (default: build-dead)
# Report-only: exits 0 whatever it finds; non-zero only when the build
# fails.
#
# Deliberate keep-set (KEEP below):
#  - sim::EventQueue::run, json::write, fault::FaultInjector::
#    attached_points: tests drive or check against them.
#  - core::lis_length, monitor::rates_of, analysis::summarize(span of
#    double), analysis::fraction_within, analysis::write_series_csv:
#    small tested helpers (lis_length is the oracle of the incremental
#    LIS tests).
#  - trace::MappedCapture's move operations: perfbench/, built on its
#    own, moves captures.
#  - net::PtpMaster / PtpSlave / encode_ptp / decode_ptp
#    (net/ptp_protocol.*), gen::PoissonGenerator, gen::ImixGenerator,
#    gen::TraceGenerator and Rng::pareto: unreached, but their tests are
#    still in the suite; deleting them is an open ROADMAP item.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build-dead}"

KEEP='^choir::(sim::EventQueue::run\(|json::write(\[abi:cxx11\])?\(|fault::FaultInjector::attached_points\(|core::lis_length\(|monitor::rates_of\(|analysis::(summarize\(std::span<double const|fraction_within\(|write_series_csv\()|trace::MappedCapture::(MappedCapture|operator=)\(choir::trace::MappedCapture&&\)|net::(PtpMaster|PtpSlave|encode_ptp|decode_ptp)|gen::(PoissonGenerator|ImixGenerator|TraceGenerator)::|Rng::pareto\()'

cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-O0 -fno-inline -ffunction-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
if ! cmake --build "$build" -j "${JOBS:-4}" >"$build/build.log" 2>&1; then
  tail -n 50 "$build/build.log"
  exit 1
fi

lib_symbols="$(mktemp)"
bin_symbols="$(mktemp)"
trap 'rm -f "$lib_symbols" "$bin_symbols"' EXIT

find "$build/src" -name 'libchoir_*.a' -print0 |
  xargs -0 nm -C --defined-only 2>/dev/null |
  awk '$2 == "T" || $2 == "W" { $1 = ""; $2 = ""; sub(/^  /, ""); print }' |
  grep '^choir::' | grep -Ev '^choir::[^(]* std::' | sort -u >"$lib_symbols"

find "$build/src" "$build/bench" "$build/examples" -type f -perm -u+x \
  ! -path '*/CMakeFiles/*' -print0 |
  xargs -0 nm -C --defined-only 2>/dev/null |
  awk 'NF >= 3 { $1 = ""; $2 = ""; sub(/^  /, ""); print }' |
  sort -u >"$bin_symbols"

dead="$(comm -23 "$lib_symbols" "$bin_symbols" | grep -Ev "$KEEP" || true)"
if [ -z "$dead" ]; then
  echo "dead_symbols: no unreached library functions outside the keep-set"
else
  echo "dead_symbols: $(printf '%s\n' "$dead" | wc -l) library function(s)" \
    "reached by no production binary:"
  printf '%s\n' "$dead"
fi

#!/usr/bin/env bash
# Dead-code audit: list library functions that no production binary
# reaches.
#
# Builds the tree at -O0 without inlining, one section per function, and
# links every binary with --gc-sections, so a binary keeps exactly the
# functions it can call. The report is the defined text symbols (T/W) in
# namespace choir:: of the static libraries, minus every symbol still
# present in a production binary (everything built from src/, bench/ and
# tools/; examples and tests do not count), minus the keep-set below.
# What remains is code that only tests or examples reach, or nothing
# does: move it into the example that uses it, or delete it.
# Standard-library templates instantiated for choir types (demangled as
# "choir::T std::f<...>(...)") are not library code and are skipped.
#
# Usage: tools/dead_symbols.sh [BUILD_DIR]    (default: build-dead)
# Exits 0 and prints "no unreached library functions outside the
# keep-set" when the report is empty; exits 1 when it lists any function
# (CI fails then) or when the build fails.
#
# Deliberate keep-set (KEEP below), and why each entry stays:
#  - Entry points that tests drive: sim::EventQueue::run and
#    fault::FaultInjector::attached_points. No production binary calls
#    them, but the tests drive or check against both.
#  - The oracles: core::lis_length, the plain std::lower_bound LIS
#    length the LIS and galloping-search tests check against, and
#    trace::packet_id_of, the Tag -> id mapping the tests check
#    trace::trailer_packet_id (the production path, two loads of the raw
#    trailer) against.
#  - A work count only tests read: core::PacketIdIndex::census, the
#    lane share tests/test_index_census.cpp reports per workload.
#  - Symbols perfbench pins: trace::MappedCapture's move operations.
#    perfbench/ is built on its own (not by this script) and moves
#    captures, so their removal would break it.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build-dead}"

KEEP='^choir::(sim::EventQueue::run\(|fault::FaultInjector::attached_points\(|core::lis_length\(|trace::packet_id_of\(|core::PacketIdIndex::census\(|trace::MappedCapture::(MappedCapture|operator=)\(choir::trace::MappedCapture&&\))'

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

find "$build/src" "$build/bench" -type f -perm -u+x \
  ! -path '*/CMakeFiles/*' -print0 |
  xargs -0 nm -C --defined-only 2>/dev/null |
  awk 'NF >= 3 { $1 = ""; $2 = ""; sub(/^  /, ""); print }' |
  sort -u >"$bin_symbols"

dead="$(comm -23 "$lib_symbols" "$bin_symbols" | grep -Ev "$KEEP" || true)"
if [ -z "$dead" ]; then
  echo "dead_symbols: no unreached library functions outside the keep-set"
  exit 0
fi
echo "dead_symbols: $(printf '%s\n' "$dead" | wc -l) library function(s)" \
  "reached by no production binary:"
printf '%s\n' "$dead"
exit 1

#!/usr/bin/env bash
# Host-time profile of one benchmark workload: where the simulator itself
# spends wall-clock time on the host (not simulated cycles).
#
# Usage:
#   scripts/host_profile.sh WORKLOAD     # conn_churn, stream_echo or file_mix
#
# Configures perfbench/ as a Release build with -pg into build-profile/ (its
# own tree; nothing under perfbench/ changes), runs the workload untraced for
# 5 s at seed 1 (RUN_S and SEED below), prints the run's result line, then the
# top of gprof's flat profile.
#
# Read the profile as a list of candidates, not as sizes. gprof attributes
# only code compiled with -pg: time in libc (malloc/free, memcpy, the
# internals of std::string and std::map nodes) belongs to no function, so
# allocation-heavy code reads low. Size a lever with scripts/perf_pairs.py
# (alternating parent/change runs) before claiming it.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
  echo "usage: $0 WORKLOAD" >&2
  exit 2
fi
WORKLOAD=$1
RUN_S=5
SEED=1
BUILD_DIR=build-profile

GENERATOR=()
if command -v ninja > /dev/null; then
  GENERATOR=(-G Ninja)
fi
cmake -S perfbench -B "$BUILD_DIR" "${GENERATOR[@]}" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg > /dev/null
cmake --build "$BUILD_DIR" -j 4 > /dev/null

# gmon.out lands in the working directory of the profiled run.
rm -f "$BUILD_DIR/gmon.out"
(cd "$BUILD_DIR" &&
  ./perfbench --workload "$WORKLOAD" --seed "$SEED" --seconds "$RUN_S" \
    --trace 0 | tail -n 1)
gprof -b -p "$BUILD_DIR/perfbench" "$BUILD_DIR/gmon.out" | head -n 30

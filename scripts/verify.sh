#!/usr/bin/env bash
# Tier-1 verification: configure with warnings-as-errors, build everything,
# run the full test suite. This is the gate every PR must pass.
#
# Usage:
#   scripts/verify.sh            # -Werror build + ctest
#   ASAN=1 scripts/verify.sh     # same, plus -fsanitize=address,undefined
#   UBSAN=1 scripts/verify.sh    # same, plus -fsanitize=undefined only
#                                # (catches UB that ASan's interceptors mask,
#                                # and runs much faster than the ASan tree)
#   FAULTS=1 scripts/verify.sh   # same build, but tests and bench smokes run
#                                # with a low-probability background fault
#                                # spec armed (SYNTHESIS_FAULTS) — everything
#                                # must still pass with the plane whispering.
#
# Each sanitizer build uses its own tree (build-asan / build-ubsan) so it
# never dirties the regular build directory.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
EXTRA_FLAGS="-Werror"

if [[ "${FAULTS:-0}" == "1" ]]; then
  # Fixed seed: the run is deterministic, so a pass here is reproducible, not
  # lucky. Wire faults, late alarms, and disk/tty timing faults only —
  # allocation-class failure (alloc, code install, bcache_alloc) is exercised
  # by targeted tests (fault_plane_test, bcache_test, stream churn); arming it
  # globally would fire inside constructors that assert success.
  # power_fail stays whisper-quiet: the crash tests disarm it on the rebooted
  # stack themselves, and any test that loses power still has to remount
  # clean — the differential harness owns the survival checks.
  : "${SYNTHESIS_FAULTS:=seed=11,wire_drop=p0.0002,wire_dup=p0.0001,wire_reorder=p0.0001,wire_burst=p0.00005,alarm_late=p0.0005,disk_late=p0.001,disk_lost=p0.0005,tty_over=p0.0001,power_fail=p0.00002}"
  export SYNTHESIS_FAULTS
  echo "verify: fault plane armed: $SYNTHESIS_FAULTS"
fi
if [[ "${ASAN:-0}" == "1" ]]; then
  BUILD_DIR=build-asan
  # -Wno-maybe-uninitialized: GCC 12 false-positives on std::variant copies
  # when sanitizer instrumentation is on (e.g. ImmArg's int|Symbol variant).
  EXTRA_FLAGS="-Werror -Wno-maybe-uninitialized \
    -fsanitize=address,undefined -fno-sanitize-recover=all"
elif [[ "${UBSAN:-0}" == "1" ]]; then
  BUILD_DIR=build-ubsan
  EXTRA_FLAGS="-Werror -Wno-maybe-uninitialized \
    -fsanitize=undefined -fno-sanitize-recover=all"
fi

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_CXX_FLAGS="$EXTRA_FLAGS" \
  > /dev/null

cmake --build "$BUILD_DIR" -j

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# Bench smoke for the paper tables and ablations (about 1 s together): each
# must exit 0, and its JSON is parsed below. Several gate themselves — table6
# fails if a bind installs code or demux cost grows with the flow count. fig1
# and fig2 are host-timed google-benchmark runs and stay out.
for b in table1_unix_syscalls table2_file_io table3_thread_ops table4_dispatcher \
    table5_interrupts table6_net_demux table7_stream ablation_synthesis \
    ablation_queues fig3_ready_queue; do
  (cd "$BUILD_DIR" && "./bench/$b" > /dev/null) \
    || { echo "verify: bench $b failed" >&2; exit 1; }
done

# Bench smoke: table8 asserts its own acceptance numbers (synthesized steering
# < 0.7x generic, 1->2 NIC scaling >= 1.7x) and exits nonzero on regression.
(cd "$BUILD_DIR" && ./bench/table8_nic_pool > /dev/null)

# table9 asserts the overload-armor numbers (shed filter < 0.5x the generic
# drop path; armored goodput at 4x offered load >= 0.8x peak).
(cd "$BUILD_DIR" && ./bench/table9_overload > /dev/null)

# table10 asserts the batched-RX numbers (synthesized batched receive path
# <= 0.6x the generic per-frame baseline; batching >= 1.3x aggregate delivery
# rate at N=4) and gates on delivered==expected with zero ring overruns.
# FAULTS=1 coverage of the batched path itself comes from the ctest pass:
# batch_rx_test replays wire faults mid-batch and diffs ring bytes.
(cd "$BUILD_DIR" && ./bench/table10_batch_rx > /dev/null)

# table11 asserts the buffer-cache numbers (synthesized cache-hit read
# <= 0.6x the generic layered instructions per block; read-ahead sequential
# scan >= 1.5x the uncached rate) and the request economy of read misses
# (the 64-block scan at read-ahead 8 in <= 8 disk requests, a cold 4-block
# read in 1), and gates on miss-free warm loops.
(cd "$BUILD_DIR" && ./bench/table11_bcache > /dev/null)

# table12 is the connection-scale survival gate: 2048 concurrent streams,
# exact occupancy return after 256-stream churn and 32 keepalive reaps, a
# measured >= 4x junk flood with goodput floored at 0.6x of unflooded, a
# handshake completing while level-2 shedding is engaged, and every connect
# under certain install-refusal served degraded then re-synthesized. It arms
# its own default fault spec when SYNTHESIS_FAULTS is unset.
(cd "$BUILD_DIR" && ./bench/table12_c10k > /dev/null)

# table13 asserts the batched-TX numbers (synthesized coalesced transmit path
# <= 0.6x the generic per-frame baseline; coalescing >= 1.3x aggregate
# transmit rate at N=4) and gates on completed==expected with zero spurious
# retirements and zero frames left in flight. FAULTS=1 coverage of the TX
# retire loop comes from the ctest pass: batch_tx_test replays drop/corrupt/
# reorder/dup schedules and irq-burst storms across both retire loops.
(cd "$BUILD_DIR" && ./bench/table13_tx_batch > /dev/null)

# table14 is the crash-consistency gate: 64 seeded power-fail points through
# random write/fsync schedules — zero fsynced bytes lost, every remount
# auditor-clean after journal replay — plus the journal's price (journal-on
# write+fsync throughput >= 0.85x journal-off at batch 16).
(cd "$BUILD_DIR" && ./bench/table14_crash > /dev/null)

# table15 is the adaptive-resynthesis gate: the monitor-driven sweep must
# promote a heated stream processor to the hot tier at <= 0.8x the
# specialized instructions per segment, demotion must return code-store
# occupancy exactly, the byte cap must hold across >= 4x cumulative churn
# (clock eviction demoting victims to generic), and a promotion under
# injected kCodeInstall refusal must fall back — then complete after disarm.
(cd "$BUILD_DIR" && ./bench/table15_adapt > /dev/null)

# Golden gate for the paper tables: every BENCH_*.json the benches above wrote
# must match its committed copy in bench/golden/ byte for byte (diff -u shows
# what moved). ablation_queues has no golden: its rows are host-timed. An
# armed fault plane moves simulated numbers, so the gate is skipped while
# SYNTHESIS_FAULTS is set (FAULTS=1). A change that moves a table number on
# purpose copies the new files over the goldens in the same commit.
if [[ -z "${SYNTHESIS_FAULTS:-}" ]]; then
  for golden in bench/golden/BENCH_*.json; do
    diff -u "$golden" "$BUILD_DIR/$(basename "$golden")" \
      || { echo "verify: $(basename "$golden") moved from $golden" >&2; exit 1; }
  done
fi

# Example smoke (well under 1 s together): every example binary must exit 0.
# net_echo exits 1 if any payload is lost; c10k_server drives the
# degrade-then-resynthesize ladder and exits 1 if any of its checks fails.
# Then its stdout must match bench/golden/examples/<name>.txt byte for byte:
# every example but lockfree_queues (host-timed CAS retries, no golden)
# prints only simulated numbers. Skipped while SYNTHESIS_FAULTS is set, like
# the bench gate. A change that moves an example's output on purpose
# regenerates its golden in the same commit.
for e in "$BUILD_DIR"/examples/*; do
  [[ -f "$e" && -x "$e" ]] || continue
  name=$(basename "$e")
  (cd "$BUILD_DIR" && "./examples/$name" > "$name.stdout") \
    || { echo "verify: example $name failed" >&2; exit 1; }
  if [[ -z "${SYNTHESIS_FAULTS:-}" && "$name" != lockfree_queues ]]; then
    golden="bench/golden/examples/$name.txt"
    diff -u "$golden" "$BUILD_DIR/$name.stdout" \
      || { echo "verify: example $name moved from $golden" >&2; exit 1; }
  fi
done

# Every bench JSON the tree produced must parse; a malformed artifact fails
# the gate rather than silently shipping a broken table.
if command -v python3 > /dev/null; then
  for j in "$BUILD_DIR"/BENCH_*.json; do
    [[ -e "$j" ]] || continue
    python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$j" \
      || { echo "verify: malformed $j" >&2; exit 1; }
  done

  # Repository benchmark smoke: one traced window per workload (Release build
  # in .bench_build/), at seed 1 and at the held-out seed 7. "correct" covers
  # every operation's bytes and every workload check (conn_churn: exact
  # occupancy return after the phase), plus virtual_identical and
  # zero_residual. Then every simulated number must match its golden copy in
  # bench/golden/ byte for byte: the run's lines minus the final JSON line,
  # the trace overhead_x line and every line that names a host quantity. A
  # change that moves a simulated number on purpose regenerates the golden
  # with the same filter in the same commit.
  for seed in 1 7; do
    for w in conn_churn stream_echo file_mix; do
      out=$(python3 perfbench/run.py --workload "$w" --seed "$seed" --seconds 0 \
          --trace 1 2> /dev/null) \
        || { echo "verify: perfbench $w seed $seed smoke failed" >&2; exit 1; }
      tail -n 1 <<< "$out" \
        | python3 -c 'import json,sys; sys.exit(0 if json.load(sys.stdin)["correct"] else 1)' \
        || { echo "verify: perfbench $w seed $seed smoke failed" >&2; exit 1; }
      golden="bench/golden/perfbench_${w}_seed${seed}.txt"
      sed '$d' <<< "$out" | grep -v -e host -e '^trace overhead_x ' \
        | diff -u "$golden" - \
        || { echo "verify: perfbench $w seed $seed moved from $golden" >&2; exit 1; }
    done
  done
fi

echo "verify: OK ($BUILD_DIR)"

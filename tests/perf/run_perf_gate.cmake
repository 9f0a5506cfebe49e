# The perf gate for one trajectory bench, run as a CTest driver:
#
#   cmake -DBENCH=<bench binary> -DDIFF=<aero_diff-binary>
#         -DBASELINE=<checked-in BENCH_*.json> -DOUT=<scratch json>
#         -DLABEL=<bench label> -DIGNORE=<;-list of metric names>
#         [-DREL_TOL=<tol>] -P run_perf_gate.cmake
#
# Regenerates the bench's --small artifact and diffs it against the
# checked-in baseline. What is gated, and how, differs from the golden
# gate because perf numbers are machine-dependent:
#
#   * deterministic counts (events_total, final_tick, erases, channel
#     grants, events_per_request, ...) compare exactly — any drift means
#     the kernel or the grant path changed behaviour;
#   * machine-normalized ratios are gated through threshold booleans,
#     which compare exactly because the reference is re-measured in the
#     same run. The kernel bench (LABEL kernel) gates the tagged-vs-legacy
#     speedups (summary.speedup_headline_ge_1_5, .speedup_all_ge_1_2):
#     tagged and legacy trials interleave as ABAB pairs and each speedup
#     is the median of the per-pair ratios, so a genuine >30% kernel
#     regression flips a boolean on any machine, while machine-to-machine
#     ratio noise and transient load cannot. The contention bench (LABEL
#     contention) gates the queued-vs-legacy wall-clock multiple
#     (summary.queued_slowdown_le_3);
#   * machine-absolute rates and the raw ratios are recorded for
#     trajectory plots but ignored by the diff: the caller names them in
#     IGNORE (kernel: mevents_per_sec, requests_per_sec,
#     ns_per_erase_step, dispatch_speedup_p{16,64,256,1024};
#     contention: requests_per_sec, replay_slowdown_queued).
#
# To refresh the baselines after an intentional change:
#   cmake --build build --target regen-perf-baseline

foreach(var BENCH DIFF BASELINE OUT LABEL IGNORE)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "run_perf_gate.cmake: -D${var}=... is required")
    endif()
endforeach()

if(NOT DEFINED REL_TOL)
    # Only reaches deterministic floats (events_per_request, event-count
    # ratios); everything noisy is either thresholded or ignored.
    set(REL_TOL 1e-6)
endif()

set(ignore_args)
foreach(metric IN LISTS IGNORE)
    list(APPEND ignore_args --ignore "${metric}")
endforeach()

execute_process(
    COMMAND "${BENCH}" --small --json "${OUT}"
    RESULT_VARIABLE bench_rc
    OUTPUT_QUIET)
if(NOT bench_rc EQUAL 0)
    message(FATAL_ERROR "bench '${BENCH}' failed (exit ${bench_rc})")
endif()

execute_process(
    COMMAND "${DIFF}" "${BASELINE}" "${OUT}" --rel-tol "${REL_TOL}"
        ${ignore_args}
    RESULT_VARIABLE diff_rc
    OUTPUT_VARIABLE diff_out
    ECHO_OUTPUT_VARIABLE)
if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
        "${LABEL} bench drifted from ${BASELINE} "
        "(aero_diff exit ${diff_rc}); deterministic-count drift means a "
        "behaviour change, a flipped threshold boolean means a perf "
        "regression. If intentional, refresh with the "
        "'regen-perf-baseline' target")
endif()

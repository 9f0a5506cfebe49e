# Golden regression gate, one aero_diff invocation for all baselines:
#
#   cmake -DBENCH_DIR=<dir with bench binaries> -DDIFF=<aero_diff>
#         -DGOLDEN=<tests/golden> -DOUT=<scratch dir> [-DONLY=<baseline>]
#         [-DREL_TOL=<tol>] -P run_gate_tree.cmake
#
# Regenerates every bench's --small artifact (one bench binary per
# <name>.json baseline in GOLDEN) into OUT, then runs `aero_diff GOLDEN
# OUT` in directory mode: every baseline is paired with its regenerated
# counterpart, unpaired files fail the gate, and the per-metric delta
# tables for every drifting bench land in one report. This is the
# single-command CI gate.
#
# -DONLY=<baseline> (a file name in GOLDEN without `.json`, e.g.
# fig04_erase_latency_cdf or tenant_qos_slo) regenerates and diffs just
# that baseline: the per-bench golden.* CTest tests run this way.
#
# Variant baselines don't map 1:1 onto a bench binary: the table below
# names the binary and extra flags that regenerate them (kept in sync
# with regen-golden in the top-level CMakeLists.txt).
#
# To refresh the baselines after an intentional change:
#   cmake --build build --target regen-golden

foreach(required BENCH_DIR DIFF GOLDEN OUT)
    if(NOT DEFINED ${required})
        message(FATAL_ERROR "run_gate_tree.cmake needs -D${required}=...")
    endif()
endforeach()
if(NOT DEFINED REL_TOL)
    # Zero would do in a fixed toolchain; the default absorbs last-ulp
    # libm differences in *floating-point* metrics across compilers
    # while still catching real drift. Integer metrics always compare
    # exactly — if a toolchain change flips a count, regenerate the
    # baselines (regen-golden) and review the delta.
    set(REL_TOL 1e-6)
endif()

# file(GLOB RELATIVE) needs absolute paths to behave; accept relative
# arguments (resolved against the caller's working directory).
foreach(pathvar BENCH_DIR DIFF GOLDEN OUT)
    get_filename_component(${pathvar} "${${pathvar}}" ABSOLUTE)
endforeach()

file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")

if(DEFINED ONLY)
    set(baselines "${ONLY}.json")
    if(NOT EXISTS "${GOLDEN}/${ONLY}.json")
        message(FATAL_ERROR "no baseline '${ONLY}.json' under '${GOLDEN}'")
    endif()
else()
    file(GLOB baselines RELATIVE "${GOLDEN}" "${GOLDEN}/*.json")
    if(NOT baselines)
        message(FATAL_ERROR "no *.json baselines under '${GOLDEN}'")
    endif()
    list(SORT baselines)
endif()

# Variant table: baseline name -> (bench binary, extra flags).
set(variant_tenant_qos_slo_BENCH tenant_qos)
set(variant_tenant_qos_slo_ARGS --slo noisy)

foreach(baseline IN LISTS baselines)
    string(REPLACE ".json" "" bench "${baseline}")
    set(extra_args)
    if(DEFINED variant_${bench}_BENCH)
        set(extra_args ${variant_${bench}_ARGS})
        set(bench "${variant_${bench}_BENCH}")
    endif()
    set(bench_bin "${BENCH_DIR}/${bench}")
    if(NOT EXISTS "${bench_bin}")
        message(FATAL_ERROR
            "baseline '${baseline}' has no bench binary at "
            "'${bench_bin}' — build the bench target first")
    endif()
    execute_process(
        COMMAND "${bench_bin}" --small ${extra_args}
            --json "${OUT}/${baseline}"
        RESULT_VARIABLE bench_rc
        OUTPUT_QUIET)
    if(NOT bench_rc EQUAL 0)
        message(FATAL_ERROR "bench '${bench}' failed (exit ${bench_rc})")
    endif()
endforeach()

if(DEFINED ONLY)
    set(diff_inputs "${GOLDEN}/${ONLY}.json" "${OUT}/${ONLY}.json")
else()
    set(diff_inputs "${GOLDEN}" "${OUT}")
endif()
execute_process(
    COMMAND "${DIFF}" ${diff_inputs} --rel-tol "${REL_TOL}"
    RESULT_VARIABLE diff_rc
    OUTPUT_VARIABLE diff_out
    ECHO_OUTPUT_VARIABLE)
if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
        "regenerated artifacts drifted from ${GOLDEN} "
        "(aero_diff exit ${diff_rc}); if the change is intentional, "
        "rebuild the baselines with the 'regen-golden' target")
endif()

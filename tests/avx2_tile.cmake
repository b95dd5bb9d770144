# Reruns the conv-tile suites under the dispatch the environment selects.
# ctest sim_engine_avx2_tile sets FTDL_SIMD=avx2, so a host whose default is
# the AVX-512 VNNI tile also runs the AVX2 one: the SIMD-vs-scalar and engine
# sweeps, the tile tests, the bound-weights test and the zoo-scale output
# digests.
#
#   cmake -DSIM_ENGINE=<test_sim_engine> -DRUNTIME=<test_runtime>
#         -P avx2_tile.cmake
function(run_suite program filter)
  execute_process(COMMAND "${program}" "--gtest_filter=${filter}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${program} --gtest_filter=${filter} failed: ${rc}")
  endif()
endfunction()

run_suite("${SIM_ENGINE}"
          "*SimdSweep.*:*EngineSweep.*:SimEngine.*Tile*:SimEngine.BoundWeights*")
run_suite("${RUNTIME}" "Executor.ZooOutputsMatchReferenceDigests")

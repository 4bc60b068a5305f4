# End-to-end checks of the `unigen` CLI: each subcommand on its built-in
# demo, sample's byte-identity across widths and the process fleet, and the
# rejection of malformed flags, inputs and export paths.
#
#   cmake -DUNIGEN=build/unigen -DWORK_DIR=build/cli_smoke \
#         -P tests/cli_smoke.cmake
#
# Malformed numbers are checked only with values the parser rejects before
# any pool or fleet exists, so no check starts threads it does not need.

cmake_minimum_required(VERSION 3.16)
if(NOT UNIGEN OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DUNIGEN=<binary> -DWORK_DIR=<dir> -P cli_smoke.cmake")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# run(<expected exit code | nonzero> args...) — runs unigen with args and
# checks the exit code; leaves stdout in OUT and stderr in ERR.
function(run expected)
  execute_process(COMMAND "${UNIGEN}" ${ARGN}
      OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code
      TIMEOUT 60)
  string(REPLACE ";" " " shown "${ARGN}")
  if(expected STREQUAL "nonzero")
    if("${code}" STREQUAL "0")
      message(FATAL_ERROR "unigen ${shown}: exited 0, expected failure\n${out}${err}")
    endif()
  elseif(NOT "${code}" STREQUAL "${expected}")
    message(FATAL_ERROR "unigen ${shown}: exit ${code}, expected ${expected}\n${out}${err}")
  endif()
  set(OUT "${out}" PARENT_SCOPE)
  set(ERR "${err}" PARENT_SCOPE)
endfunction()

function(expect_match text regex what)
  if(NOT "${text}" MATCHES "${regex}")
    message(FATAL_ERROR "${what}: no match for '${regex}' in:\n${text}")
  endif()
endfunction()

# v_lines(<out var>) — the v-lines of OUT, as a list.
macro(v_lines var)
  string(REGEX MATCHALL "\nv [^\n]*" ${var} "\n${OUT}")
endmacro()

# --- sample: exactly N witnesses, identical at every width and on a fleet
run(0 sample --samples 12 --threads 1)
v_lines(ref)
list(LENGTH ref n)
if(NOT n EQUAL 12)
  message(FATAL_ERROR "sample --samples 12 printed ${n} v-lines:\n${OUT}")
endif()
run(0 sample --samples 12 --threads 4)
v_lines(wide)
if(NOT wide STREQUAL ref)
  message(FATAL_ERROR "sample v-lines differ at --threads 4:\n${OUT}")
endif()
run(0 sample --samples 12 --fleet 2)
expect_match("${OUT}" "process fleet up: 2 worker" "sample --fleet 2")
v_lines(fleet)
if(NOT fleet STREQUAL ref)
  message(FATAL_ERROR "sample v-lines differ on --fleet 2:\n${OUT}")
endif()

# --- sample: UNSAT and malformed DIMACS
file(WRITE "${WORK_DIR}/unsat.cnf" "p cnf 2 2\n1 0\n-1 0\n")
run(20 sample "${WORK_DIR}/unsat.cnf")
expect_match("${OUT}" "s UNSATISFIABLE" "sample unsat.cnf")
file(WRITE "${WORK_DIR}/bad.cnf" "p cnf 2 1\n1 x 0\n")
run(1 sample "${WORK_DIR}/bad.cnf")
expect_match("${ERR}" "line 2" "sample bad.cnf")

# --- count: an estimate, and a {"metrics":...} stats document
run(0 count --stats-json "${WORK_DIR}/count.json")
expect_match("${OUT}" "(estimate|exact count): [0-9]" "count")
file(READ "${WORK_DIR}/count.json" doc)
expect_match("${doc}" "^{\"metrics\":{" "count --stats-json")

# --- serve: COLD then warm, and a balanced registry line
run(0 serve --samples 4 --rounds 2 --stats-json "${WORK_DIR}/serve.json")
string(REGEX MATCHALL "c round 0 [^\n]* COLD " cold "${OUT}")
string(REGEX MATCHALL "c round 1 [^\n]* warm " warm "${OUT}")
list(LENGTH cold n_cold)
list(LENGTH warm n_warm)
if(NOT n_cold EQUAL 3 OR NOT n_warm EQUAL 3)
  message(FATAL_ERROR "serve: ${n_cold} COLD in round 0, ${n_warm} warm in round 1:\n${OUT}")
endif()
if(NOT OUT MATCHES "c registry: ([0-9]+) requests, ([0-9]+) hits [^,]*, ([0-9]+) misses")
  message(FATAL_ERROR "serve: no registry line:\n${OUT}")
endif()
math(EXPR balance "${CMAKE_MATCH_2} + ${CMAKE_MATCH_3} - ${CMAKE_MATCH_1}")
if(NOT balance EQUAL 0)
  message(FATAL_ERROR "serve: hits + misses != requests:\n${OUT}")
endif()
file(READ "${WORK_DIR}/serve.json" doc)
expect_match("${doc}" "^{\"registry\":{.*,\"metrics\":{" "serve --stats-json")

# --- exports: a written stats document, and failing writes
run(0 sample --samples 3 --stats-json "${WORK_DIR}/sample.json"
    --trace-out "${WORK_DIR}/sample.jsonl")
file(READ "${WORK_DIR}/sample.json" doc)
expect_match("${doc}" "^{\"pool\":{.*,\"metrics\":{" "sample --stats-json")
file(READ "${WORK_DIR}/sample.jsonl" doc)
expect_match("${doc}" "^{\"schema\":\"unigen.trace.v1\"" "sample --trace-out")
run(1 sample --samples 3 --stats-json "${WORK_DIR}/missing/s.json")
expect_match("${ERR}" "cannot write .*missing/s.json" "unwritable --stats-json")
run(1 sample --samples 3 --trace-out "${WORK_DIR}/missing/t.jsonl")
expect_match("${ERR}" "cannot write .*missing/t.jsonl" "unwritable --trace-out")

# --- usage errors: malformed numbers and flags a subcommand does not take
foreach(bad
    "sample;--fleet;abc"
    "sample;--samples;4x"
    "sample;--threads;-1"
    "sample;--samples;99999999999999999999999"
    "sample;--epsilon;abc"
    "serve;--seed;xyz"
    "serve;--rounds;-1"
    "count;--delta;-1"
    "count;--threads;4x")
  run(2 ${bad})
  expect_match("${ERR}" "bad value for" "unigen ${bad}")
endforeach()
foreach(bad "count;--rounds;2" "count;--seed;1" "sample;--delta;0.1"
    "sample;a.cnf;b.cnf" "frobnicate" "")
  run(2 ${bad})
endforeach()

message(STATUS "cli_smoke: all checks passed")

# Documentation completeness check, run as a CTest (`docs_check`):
#  1. every public header under src/ must be mentioned (by file name) in
#     docs/API.md, so the API reference cannot silently rot as headers
#     are added;
#  2. every public symbol declared at namespace scope in a src/serve/
#     header (class/struct/enum and free functions) must be mentioned in
#     docs/SERVING.md — the serving handbook ships with the code, not
#     after it;
#  3. every public symbol of the online/streaming simulator headers
#     (src/sim/online.hpp, src/sim/stream.hpp, src/sim/divisible.hpp)
#     must be mentioned in docs/ONLINE.md — same rule for the streaming
#     handbook;
#  3b. every public symbol of the scheduling-policy surface
#     (src/core/policy.hpp and src/baselines/lpt_policy.hpp) and of the
#     decision cache (src/core/decision_cache.hpp) must be mentioned in
#     docs/API.md — the policy objects are the library's primary
#     extension point and the cache is their serving-side companion, so
#     the API reference must cover both;
#  4. docs/ARCHITECTURE.md must exist and cover every source layer it
#     promises (core/, sched/, sim/, engine/, serve/);
#  5. docs/BENCHMARKS.md must exist and document every BENCH_*.json
#     report the benches emit;
#  6. no header under src/ may declare a *_reference function,
#     AllotmentTable, canonical_allotment or simulate_execution: the
#     scalar oracles and the discrete-event replay are test code
#     (tests/reference/, the moldsched_reference library). Nor may one
#     declare the object schedule form the Schedule-based oracles keep
#     private (class Schedule, struct Placement, the to_schedule /
#     assign_from converters, OfflineScheduler, OnlineResult):
#     FlatPlacements is the library's one schedule type.
# Invoke: cmake -DREPO=<repo root> -P cmake/docs_check.cmake

# Extract public symbols (type declarations and free functions at
# namespace scope) from the ${headers} files and fail unless each one
# appears in ${doc_text}; ${doc_name} names the document in the error
# message. Lines are read via file(READ) with semicolons escaped and
# square brackets stripped before splitting — file(STRINGS) +
# foreach() silently merges every line between an unbalanced "[" in a
# comment and the next "]", which used to hide whole declarations from
# the check.
function(check_symbol_coverage headers doc_text doc_name)
  set(symbols "")
  foreach(header ${headers})
    file(READ "${header}" content)
    string(REPLACE ";" "\\;" content "${content}")
    string(REPLACE "[" "" content "${content}")
    string(REPLACE "]" "" content "${content}")
    string(REPLACE "\n" ";" lines "${content}")
    foreach(line IN LISTS lines)
      # Type declarations at namespace scope (methods are indented).
      if(line MATCHES "^(class|struct|enum[ \t]+class)[ \t]+([A-Za-z_][A-Za-z0-9_]*)")
        list(APPEND symbols "${CMAKE_MATCH_2}")
      # Free-function declarations at namespace scope: an unindented line
      # (attributes like nodiscard keep their word after bracket
      # stripping) whose first identifier-followed-by-( is the function
      # name (return type keywords and attributes contain no "name(").
      elseif(line MATCHES "^[A-Za-z_]" AND line MATCHES "([A-Za-z_][A-Za-z0-9_]*)[ \t]*\\(")
        list(APPEND symbols "${CMAKE_MATCH_1}")
      endif()
    endforeach()
  endforeach()
  list(REMOVE_DUPLICATES symbols)
  # Type aliases read as functions by the heuristic (e.g. "using F =
  # std::function<...>(...)") still name a public symbol — keep them.
  list(REMOVE_ITEM symbols using)

  set(missing "")
  foreach(symbol ${symbols})
    string(FIND "${doc_text}" "${symbol}" found)
    if(found EQUAL -1)
      list(APPEND missing "${symbol}")
    endif()
  endforeach()
  list(LENGTH symbols total)
  if(missing)
    list(JOIN missing "\n  " missing_pretty)
    message(FATAL_ERROR
            "docs_check: ${doc_name} does not mention these public "
            "symbols:\n  ${missing_pretty}\n"
            "Document them in ${doc_name} (the handbook must cover the "
            "whole public surface).")
  endif()
  message(STATUS
          "docs_check: all ${total} symbols covered by ${doc_name}")
endfunction()
if(NOT DEFINED REPO)
  message(FATAL_ERROR "docs_check.cmake: pass -DREPO=<repository root>")
endif()

set(api_md "${REPO}/docs/API.md")
if(NOT EXISTS "${api_md}")
  message(FATAL_ERROR "docs_check: ${api_md} does not exist")
endif()
file(READ "${api_md}" api_text)

file(GLOB_RECURSE headers RELATIVE "${REPO}" "${REPO}/src/*.hpp")
list(SORT headers)

set(missing "")
foreach(header ${headers})
  get_filename_component(name "${header}" NAME)
  string(FIND "${api_text}" "${name}" found)
  if(found EQUAL -1)
    list(APPEND missing "${header}")
  endif()
endforeach()

list(LENGTH headers total)
if(missing)
  list(JOIN missing "\n  " missing_pretty)
  message(FATAL_ERROR
          "docs_check: docs/API.md does not mention these public headers:\n"
          "  ${missing_pretty}\n"
          "Add them to the header index (or a deep section) in docs/API.md.")
endif()
message(STATUS "docs_check: all ${total} public headers covered by docs/API.md")

# --- test oracles stay out of the library -------------------------------
# The scalar *_reference twins, the per-task AllotmentTable, the
# canonical-allotment scan (canonical_allotment_reference), the
# discrete-event replay (simulate_execution) and the object schedule form
# (Schedule, Placement, their converters, the on-line oracle's
# OfflineScheduler and OnlineResult) are test code, built into
# moldsched_reference from tests/reference/. A src/ header that declares
# one — the scan as a canonical_allotment member included — would ship an
# oracle inside libmoldsched again. Comments may name them; code may not.
set(oracle_headers "")
foreach(header ${headers})
  file(READ "${REPO}/${header}" content)
  string(REPLACE ";" "" content "${content}")
  string(REPLACE "[" "" content "${content}")
  string(REPLACE "]" "" content "${content}")
  string(REPLACE "\n" ";" lines "${content}")
  foreach(line IN LISTS lines)
    string(REGEX REPLACE "//.*$" "" code "${line}")
    if(code MATCHES "[A-Za-z0-9_]_reference[ \t]*\\(" OR
       code MATCHES "(^|[^A-Za-z0-9_])AllotmentTable([^A-Za-z0-9_]|$)" OR
       code MATCHES "(^|[^A-Za-z0-9_])canonical_allotment[ \t]*\\(" OR
       code MATCHES "(^|[^A-Za-z0-9_])simulate_execution[ \t]*\\(" OR
       code MATCHES "(^|[^A-Za-z0-9_])class[ \t]+Schedule([^A-Za-z0-9_]|$)" OR
       code MATCHES "(^|[^A-Za-z0-9_])struct[ \t]+Placement([^A-Za-z0-9_]|$)" OR
       code MATCHES "(^|[^A-Za-z0-9_])(to_schedule|assign_from)[ \t]*\\(" OR
       code MATCHES "(^|[^A-Za-z0-9_])(OfflineScheduler|OnlineResult)([^A-Za-z0-9_]|$)")
      list(APPEND oracle_headers "${header}")
    endif()
  endforeach()
endforeach()
if(oracle_headers)
  list(REMOVE_DUPLICATES oracle_headers)
  list(JOIN oracle_headers "\n  " oracle_pretty)
  message(FATAL_ERROR
          "docs_check: these library headers declare a test oracle (a "
          "*_reference function, AllotmentTable, canonical_allotment, "
          "simulate_execution, or the object schedule form: Schedule, "
          "Placement, to_schedule, assign_from, OfflineScheduler, "
          "OnlineResult):\n"
          "  ${oracle_pretty}\n"
          "Oracles belong in tests/reference/ (the moldsched_reference "
          "library), not in src/.")
endif()
message(STATUS "docs_check: no src/ header declares a test oracle")

# --- serve layer: docs/SERVING.md must cover every public symbol --------
set(serving_md "${REPO}/docs/SERVING.md")
if(NOT EXISTS "${serving_md}")
  message(FATAL_ERROR "docs_check: ${serving_md} does not exist")
endif()
file(READ "${serving_md}" serving_text)

file(GLOB_RECURSE serve_headers "${REPO}/src/serve/*.hpp")
list(SORT serve_headers)
check_symbol_coverage("${serve_headers}" "${serving_text}" "docs/SERVING.md")

# --- policy surface: docs/API.md must cover every policy symbol ---------
set(policy_headers
    "${REPO}/src/core/policy.hpp"
    "${REPO}/src/core/decision_cache.hpp"
    "${REPO}/src/baselines/lpt_policy.hpp")
check_symbol_coverage("${policy_headers}" "${api_text}" "docs/API.md")

# --- SoA kernel layer: docs/API.md must cover every kernel symbol -------
# The vectorized kernels and their allocation-free *_into serving forms
# are the performance contract of the library; the API reference must
# name each one (see "The SoA kernel layer" section). Their scalar
# oracles are test code (rule 6) and stay out of this set.
set(kernel_headers
    "${REPO}/src/core/demt.hpp"
    "${REPO}/src/core/knapsack.hpp"
    "${REPO}/src/core/batching.hpp"
    "${REPO}/src/dualapprox/dual_test.hpp"
    "${REPO}/src/dualapprox/cmax_estimator.hpp"
    "${REPO}/src/tasks/allotment_table.hpp"
    "${REPO}/src/sched/flat_schedule.hpp"
    "${REPO}/src/sched/compaction.hpp")
check_symbol_coverage("${kernel_headers}" "${api_text}" "docs/API.md")

# --- trace layer: docs/API.md must cover every trace symbol -------------
# SWF ingestion, the tape compiler and the SLO accumulator are a public
# subsystem (src/trace/); the API reference must name each symbol, and the
# trace handbook must exist (format mapping and SLO schema live there).
file(GLOB_RECURSE trace_headers "${REPO}/src/trace/*.hpp")
list(SORT trace_headers)
check_symbol_coverage("${trace_headers}" "${api_text}" "docs/API.md")
if(NOT EXISTS "${REPO}/docs/TRACES.md")
  message(FATAL_ERROR "docs_check: docs/TRACES.md does not exist")
endif()

# --- online/streaming layer: docs/ONLINE.md covers the sim surface -------
set(online_md "${REPO}/docs/ONLINE.md")
if(NOT EXISTS "${online_md}")
  message(FATAL_ERROR "docs_check: ${online_md} does not exist")
endif()
file(READ "${online_md}" online_text)

set(online_headers
    "${REPO}/src/sim/online.hpp"
    "${REPO}/src/sim/stream.hpp"
    "${REPO}/src/sim/divisible.hpp")
check_symbol_coverage("${online_headers}" "${online_text}" "docs/ONLINE.md")

# --- architecture + benchmark docs --------------------------------------
set(architecture_md "${REPO}/docs/ARCHITECTURE.md")
if(NOT EXISTS "${architecture_md}")
  message(FATAL_ERROR "docs_check: ${architecture_md} does not exist")
endif()
file(READ "${architecture_md}" architecture_text)
foreach(layer core sched sim engine serve trace)
  string(FIND "${architecture_text}" "${layer}/" found)
  if(found EQUAL -1)
    message(FATAL_ERROR
            "docs_check: docs/ARCHITECTURE.md does not cover the "
            "${layer}/ layer")
  endif()
endforeach()

set(benchmarks_md "${REPO}/docs/BENCHMARKS.md")
if(NOT EXISTS "${benchmarks_md}")
  message(FATAL_ERROR "docs_check: ${benchmarks_md} does not exist")
endif()
file(READ "${benchmarks_md}" benchmarks_text)
foreach(report BENCH_demt.json BENCH_demt_micro.json BENCH_serve.json)
  string(FIND "${benchmarks_text}" "${report}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR
            "docs_check: docs/BENCHMARKS.md does not document ${report}")
  endif()
endforeach()
message(STATUS "docs_check: architecture and benchmark docs present")

# Output golden of one deterministic program (cmake -P script).
#
#   cmake -DPROGRAM=<exe> -DEXPECTED=<dir>/<name> -DWORKDIR=<dir>
#         -P run_golden.cmake
#
# Runs PROGRAM in a fresh WORKDIR/run and compares
#  - its stdout with <EXPECTED>.stdout, byte for byte;
#  - the files it writes with <EXPECTED>.sha256, one "<sha256>  <file>"
#    line per file in name order (no such file: it must write none).
# A stdout difference, a hash difference, or a missing or extra file
# fails. With SCT_REGEN_GOLDEN set in the environment, the run rewrites
# both expected files instead.
foreach(var PROGRAM EXPECTED WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_golden.cmake: -D${var}= is required")
  endif()
endforeach()

set(run "${WORKDIR}/run")
set(stdout "${WORKDIR}/stdout")
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${run}")
execute_process(COMMAND "${PROGRAM}" WORKING_DIRECTORY "${run}"
  OUTPUT_FILE "${stdout}" RESULT_VARIABLE rc)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${PROGRAM} exited with ${rc}")
endif()

file(GLOB_RECURSE written LIST_DIRECTORIES false RELATIVE "${run}" "${run}/*")
list(SORT written)
set(hashes "")
foreach(f IN LISTS written)
  file(SHA256 "${run}/${f}" h)
  string(APPEND hashes "${h}  ${f}\n")
endforeach()

if(DEFINED ENV{SCT_REGEN_GOLDEN})
  configure_file("${stdout}" "${EXPECTED}.stdout" COPYONLY)
  if(hashes STREQUAL "")
    file(REMOVE "${EXPECTED}.sha256")
  else()
    file(WRITE "${EXPECTED}.sha256" "${hashes}")
  endif()
  message(STATUS "regenerated ${EXPECTED}.stdout")
  return()
endif()

# Fail (but go on) unless file `got` equals file `want`, printing a
# unified diff of the two.
function(expect_same want got)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
    "${want}" "${got}" RESULT_VARIABLE differ)
  if(differ)
    execute_process(COMMAND diff -u "${want}" "${got}")
    message(SEND_ERROR "${got} differs from ${want}")
  endif()
endfunction()

if(NOT EXISTS "${EXPECTED}.stdout")
  message(FATAL_ERROR
    "missing ${EXPECTED}.stdout (SCT_REGEN_GOLDEN=1 creates it)")
endif()
expect_same("${EXPECTED}.stdout" "${stdout}")
file(WRITE "${WORKDIR}/sha256" "${hashes}")
if(EXISTS "${EXPECTED}.sha256")
  expect_same("${EXPECTED}.sha256" "${WORKDIR}/sha256")
elseif(NOT hashes STREQUAL "")
  message(NOTICE "${hashes}")
  message(SEND_ERROR "the program wrote files no ${EXPECTED}.sha256 expects")
endif()

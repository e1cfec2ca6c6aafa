# Two-pass incremental-sweep check for the artifact store: the same bench
# run twice against one --store DIR must do all of its training/attack work
# in pass 1 and none in pass 2. Asserted from the run manifests (pass 2,
# via obs_validate --expect-store-hits-only: store.miss == 0, store.hit > 0,
# and attack.chunks and model.backward_calls absent or 0 — nothing crafted
# or trained) and from the store itself (the warm pass must leave every
# object byte-identical — SHA-256 snapshots taken after each pass must
# match).
# Driven by the store-smoke target and the store_smoke ctest entry.
#
# Usage:
#   cmake -DBENCH=<exe> -DVALIDATOR=<obs_validate> -DOUT_DIR=<dir>
#         -DNAME=<manifest name> -DARGS="<bench flags>" -P store_smoke.cmake
separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
file(REMOVE_RECURSE "${OUT_DIR}")
set(store_dir "${OUT_DIR}/store")

foreach(pass pass1 pass2)
  # Separate CON_ARTIFACTS_DIR per pass so each pass writes its own
  # manifest/CSVs; only --store is shared between the passes.
  file(MAKE_DIRECTORY "${OUT_DIR}/${pass}")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env CON_ARTIFACTS_DIR=${OUT_DIR}/${pass}
            ${BENCH} ${bench_args} --store ${store_dir} --manifest
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "store_smoke: ${pass} exited with ${rc}")
  endif()

  file(GLOB objects "${store_dir}/objects/*")
  list(SORT objects)
  set(snapshot "")
  foreach(obj ${objects})
    file(SHA256 "${obj}" obj_hash)
    string(APPEND snapshot "${obj_hash}  ${obj}\n")
  endforeach()
  if(snapshot STREQUAL "")
    message(FATAL_ERROR "store_smoke: ${pass} left the store empty")
  endif()
  file(WRITE "${OUT_DIR}/${pass}/objects.sha256" "${snapshot}")
endforeach()

execute_process(
  COMMAND ${VALIDATOR} --manifest ${OUT_DIR}/pass1/${NAME}_manifest.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "store_smoke: pass 1 manifest validation failed")
endif()

execute_process(
  COMMAND ${VALIDATOR} --manifest ${OUT_DIR}/pass2/${NAME}_manifest.json
          --expect-store-hits-only
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "store_smoke: pass 2 recomputed stored artifacts (expected a fully "
          "warm run: store.miss == 0, store.hit > 0, no attack chunk or "
          "backward call)")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${OUT_DIR}/pass1/objects.sha256 ${OUT_DIR}/pass2/objects.sha256
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "store_smoke: the warm pass mutated store objects")
endif()
message(STATUS "store_smoke: pass 2 fully served from the store; "
               "objects byte-identical")

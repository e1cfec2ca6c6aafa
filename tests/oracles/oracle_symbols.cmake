# Fails if a shipped library defines an oracle that lives in tests/oracles/:
#   cmake -DNM=<nm> -DLIBS=<lib.a>,<lib.a>,... -P oracle_symbols.cmake
# Each library is listed with `nm -C --defined-only`; a listing without a
# single con:: symbol is an error, so an unreadable library cannot pass.
set(_oracles
  "con::tensor::(transpose|im2col|col2im|im2col_batch|col2im_batch)\\("
  "::(im2col_image|linearise)\\(" "con::compress::fixed_point_quantize\\(float"
  "con::compress::(lower_linear|lower_conv2d|integer_vs_fake_divergence)\\("
  "con::compress::(integer|fake_quant)_(linear|conv2d)_forward\\("
  "con::attacks::(deepfool_reference|logit_input_gradient)\\(")
string(REPLACE "," ";" _libs "${LIBS}")
set(_failures "")
foreach(_lib IN LISTS _libs)
  execute_process(COMMAND ${NM} -C --defined-only ${_lib}
    OUTPUT_VARIABLE _symbols RESULT_VARIABLE _status)
  if(NOT _status EQUAL 0 OR NOT _symbols MATCHES "con::")
    message(FATAL_ERROR "oracle_symbols: cannot list the symbols of ${_lib}")
  endif()
  foreach(_oracle IN LISTS _oracles)
    string(REGEX MATCHALL "${_oracle}" _found "${_symbols}")
    foreach(_name IN LISTS _found)
      list(APPEND _failures "${_lib} defines ${_name}")
    endforeach()
  endforeach()
endforeach()
if(_failures)
  list(REMOVE_DUPLICATES _failures)
  string(REPLACE ";" "\n  " _report "${_failures}")
  message(FATAL_ERROR "oracle_symbols: shipped libraries define oracles:\n  ${_report}")
endif()

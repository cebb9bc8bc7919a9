# Compile-fail check, run via `cmake -P` from ctest: builds one fixture
# target and passes only when that build fails with a nodiscard error. A
# fixture that builds (or that fails for any other reason) fails the test.
#
# Expects -DBUILD_DIR (the build tree) and -DTARGET (the fixture target).

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BUILD_DIR} --target ${TARGET}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)

if(rc EQUAL 0)
  message(FATAL_ERROR "${TARGET} built, but discarding a nodiscard result must not:\n${out}")
endif()
string(REGEX MATCH "error: [^\n]*nodiscard[^\n]*" diagnostic "${out}")
if(NOT diagnostic)
  message(FATAL_ERROR "${TARGET} failed to build without a nodiscard error:\n${out}")
endif()
message(STATUS "${TARGET} rejected, as required: ${diagnostic}")

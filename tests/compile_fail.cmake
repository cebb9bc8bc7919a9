# Compile-fail check, run via `cmake -P` from ctest: builds one fixture
# target and passes only when that build fails with an error line that names
# the expected diagnostic. A fixture that builds (or that fails for any other
# reason) fails the test.
#
# Expects -DBUILD_DIR (the build tree), -DTARGET (the fixture target) and
# -DDIAGNOSTIC (literal text the error line must contain: `nodiscard`,
# `[-Werror=switch]`, `[-Werror=switch-enum]`).

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BUILD_DIR} --target ${TARGET}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)

if(rc EQUAL 0)
  message(FATAL_ERROR "${TARGET} built, but it must fail with ${DIAGNOSTIC}:\n${out}")
endif()
# DIAGNOSTIC is literal text: escape regex metacharacters, such as the
# brackets of [-Werror=switch], before matching on it.
string(REGEX REPLACE "([][.*+?^$()|\\])" "\\\\\\1" pattern "${DIAGNOSTIC}")
string(REGEX MATCH "error: [^\n]*${pattern}[^\n]*" diagnostic "${out}")
if(NOT diagnostic)
  message(FATAL_ERROR "${TARGET} failed to build without a ${DIAGNOSTIC} error:\n${out}")
endif()
message(STATUS "${TARGET} rejected, as required: ${diagnostic}")

// Compile-fail fixture (ctest: compile_fail_discarded_json). Json::parse
// returns std::optional, which is not [[nodiscard]] itself, so the attribute
// on Json::parse and the project-wide -Werror=unused-result are what reject
// this statement.

#include "telemetry/json.hpp"

int main() {
    arpsec::telemetry::Json::parse("{}");
    return 0;
}

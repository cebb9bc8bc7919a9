#pragma once

#include <string>
#include <string_view>

#include "common/expected.hpp"

namespace arpsec::common {

/// Reads a whole file. Fails with "cannot open '<path>'" when it cannot be
/// opened and "cannot read '<path>'" when a read fails (a directory opens,
/// but cannot be read); callers prefix their own context.
[[nodiscard]] Expected<std::string> read_file(const std::string& path);

/// Replaces the file at `path` with `text`. A failed open, write or close
/// fails with "cannot write '<path>': <reason>", so output lost to a full
/// disk is an error, not a silent success.
[[nodiscard]] Expected<bool> write_file(const std::string& path, std::string_view text);

}  // namespace arpsec::common

#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/index.hpp"
#include "lint/linter.hpp"

namespace arpsec::lint {

/// Module dependency closure mirroring src/*/CMakeLists.txt link graphs.
/// A file in src/<key>/ may only include (include-layering) or name symbols
/// from (symbol-layering) the listed modules.
[[nodiscard]] const std::map<std::string, std::set<std::string>, std::less<>>& module_layering();

/// Everything a token-level semantic rule needs about one file.
struct SemanticInput {
    std::string_view path;
    std::string module;  // "" outside src/<module>/
    const TuIndex& tu;
    const std::vector<std::string_view>& raw_lines;
};

/// untrusted-read-bounds: in src/wire/, bytes arriving through span /
/// string_view / Bytes parameters and span-typed fields are tainted; an
/// indexed or multi-byte read (`v[i]`, `v.data()`, `v.front()`, ...) must be
/// dominated by a size check (`v.size()`, `v.empty()`, `require(...)`).
void check_untrusted_read_bounds(const SemanticInput& in, std::vector<Violation>& out);

/// no-frame-copy: outside src/wire/ (and tests/, which legitimately build
/// raw-byte fixtures), Ethernet frames travel through the shared
/// FrameBuffer / FrameView fabric. `EthernetFrame::parse` re-parses bytes
/// the fabric already memoized, and `.serialize()` on an EthernetFrame
/// value re-copies wire bytes that are serialized exactly once, at origin.
void check_no_frame_copy(const SemanticInput& in, std::vector<Violation>& out);

/// symbol-layering: `module::Symbol` chains in src/ files are checked
/// against module_layering(), catching cross-module reach-through that
/// arrives via transitive includes (which include-layering cannot see).
void check_symbol_layering(const SemanticInput& in, std::vector<Violation>& out);

}  // namespace arpsec::lint

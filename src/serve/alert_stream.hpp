#pragma once

#include <string>
#include <vector>

#include "detect/alert.hpp"

namespace arpsec::serve {

/// `arpsec.alert-stream.v1` — one JSON object per line. The same formatter
/// backs the daemon's live kAlert records and arpsec-replay's `--alerts`
/// file, which is what lets the serve<->replay equivalence gate diff the
/// two byte for byte.
inline constexpr const char* kAlertStreamSchema = "arpsec.alert-stream.v1";

/// The stream's first line: `{"schema":"arpsec.alert-stream.v1"}`.
[[nodiscard]] std::string alert_stream_header();

/// Appends one canonical alert line (no trailing newline) to `out`. Keys
/// are emitted in a fixed order so identical alerts always produce
/// identical bytes. Numbers and addresses are appended in place, so a
/// reused `out` with room for the line allocates nothing.
void append_alert_line(std::string& out, const detect::Alert& alert);

/// The same line as a string of its own.
[[nodiscard]] std::string alert_line(const detect::Alert& alert);

/// Canonical artifact order: by timestamp, then scheme, then the alert's
/// identifying fields. Shard workers interleave nondeterministically, and
/// replay feeds schemes sequentially; sorting both sides onto this one
/// order is what makes the file artifacts comparable.
void sort_canonical(std::vector<detect::Alert>& alerts);

/// Writes header + sorted alert lines to `path`. Returns false on I/O error.
[[nodiscard]] bool write_alert_file(const std::string& path, std::vector<detect::Alert> alerts);

}  // namespace arpsec::serve

#include "core/report.hpp"

#include <algorithm>

#include "common/file.hpp"

namespace arpsec::core {

std::string TextTable::to_string() const {
    std::vector<std::size_t> widths;
    const auto account = [&widths](const std::vector<std::string>& row) {
        if (widths.size() < row.size()) widths.resize(row.size(), 0);
        for (std::size_t i = 0; i < row.size(); ++i) {
            widths[i] = std::max(widths[i], row[i].size());
        }
    };
    account(headers_);
    for (const auto& row : rows_) account(row);

    const auto render_row = [&widths](const std::vector<std::string>& row) {
        std::string line = "|";
        for (std::size_t i = 0; i < widths.size(); ++i) {
            const std::string& cell = i < row.size() ? row[i] : std::string{};
            line += " " + cell + std::string(widths[i] - cell.size(), ' ') + " |";
        }
        return line + "\n";
    };
    const auto rule = [&widths] {
        std::string line = "+";
        for (std::size_t w : widths) line += std::string(w + 2, '-') + "+";
        return line + "\n";
    };

    std::string out;
    if (!title_.empty()) out += title_ + "\n";
    out += rule();
    if (!headers_.empty()) {
        out += render_row(headers_);
        out += rule();
    }
    for (const auto& row : rows_) out += render_row(row);
    out += rule();
    return out;
}

namespace {

std::string csv_cell(const std::string& cell) {
    if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
    std::string out = "\"";
    for (char c : cell) {
        if (c == '"') out += "\"\"";
        else out.push_back(c);
    }
    return out + "\"";
}

}  // namespace

std::string TextTable::to_csv() const {
    std::string out;
    const auto render = [&out](const std::vector<std::string>& row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            if (i > 0) out.push_back(',');
            out += csv_cell(row[i]);
        }
        out.push_back('\n');
    };
    if (!headers_.empty()) render(headers_);
    for (const auto& row : rows_) render(row);
    return out;
}

bool TextTable::write_csv(const std::string& path) const {
    return common::write_file(path, to_csv()).ok();
}

std::string fmt_percent(double ratio) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f%%", ratio * 100.0);
    return buf;
}

std::string fmt_double(double v, int precision) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string fmt_bool(bool v) { return v ? "yes" : "no"; }

}  // namespace arpsec::core

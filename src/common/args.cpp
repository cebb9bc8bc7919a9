#include "common/args.hpp"

#include <utility>

namespace arpsec::common {

std::vector<std::string> split_list(std::string_view text) {
    std::vector<std::string> out;
    for (;;) {
        const std::size_t comma = text.find(',');
        if (const std::string_view item = text.substr(0, comma); !item.empty()) {
            out.emplace_back(item);
        }
        if (comma == std::string_view::npos) return out;
        text.remove_prefix(comma + 1);
    }
}

bool ArgReader::next() {
    if (!ok() || index_ + 1 >= argc_) return false;
    flag_ = argv_[++index_];
    return true;
}

bool ArgReader::value(std::string& out) {
    const char* text = take();
    if (text == nullptr) return false;
    out = text;
    return true;
}

bool ArgReader::list(std::vector<std::string>& out) {
    const char* text = take();
    if (text == nullptr) return false;
    out = split_list(text);
    return true;
}

bool ArgReader::millis(Duration& out) {
    std::int64_t ms = 0;
    if (!number(ms, 0, Duration::kMaxMillis)) return false;
    out = Duration::millis(ms);
    return true;
}

void ArgReader::reject() { fail("unknown argument '" + std::string{flag_} + "'"); }

const char* ArgReader::take() {
    if (!ok()) return nullptr;
    if (index_ + 1 >= argc_) {
        fail("missing value for " + std::string{flag_});
        return nullptr;
    }
    return argv_[++index_];
}

bool ArgReader::fail(std::string message) {
    if (ok()) error_ = std::move(message);
    return false;
}

}  // namespace arpsec::common

#include "common/file.hpp"

#include <array>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <system_error>

namespace arpsec::common {

Expected<std::string> read_file(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    if (!in) return Expected<std::string>::failure("cannot open '" + path + "'");
    std::string text;
    std::array<char, 4096> chunk;
    while (in.read(chunk.data(), chunk.size()) || in.gcount() > 0) {
        text.append(chunk.data(), static_cast<std::size_t>(in.gcount()));
    }
    if (in.bad()) return Expected<std::string>::failure("cannot read '" + path + "'");
    return text;
}

Expected<bool> write_file(const std::string& path, std::string_view text) {
    const auto failure = [&path](int err) {
        return Expected<bool>::failure("cannot write '" + path +
                                       "': " + std::generic_category().message(err));
    };
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return failure(errno);
    const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    int err = errno;
    const bool closed = std::fclose(f) == 0;
    if (wrote && !closed) err = errno;  // the buffered tail failed to flush
    if (!wrote || !closed) return failure(err);
    return true;
}

}  // namespace arpsec::common

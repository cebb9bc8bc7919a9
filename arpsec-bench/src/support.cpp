#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "common/time.hpp"
#include "replay/source.hpp"

namespace arpsec::bench {

Sizes sizes_for(const Options& options) {
    if (options.smoke) return {4000, 20000, 100};
    return {500000, 200000, 2000};
}

const std::vector<std::string>& monitor_schemes() {
    static const std::vector<std::string> kSchemes{"arpwatch", "snort-arpspoof", "lease-monitor",
                                                   "active-probe"};
    return kSchemes;
}

std::uint64_t input_seed(std::uint64_t seed) {
    // A 500k-frame trace renders ~10^4 scenario epochs and sim-check draws a
    // few 10^4 seeds, so 2^20 generator seeds per benchmark seed never overlap.
    return seed * (std::uint64_t{1} << 20) + 1;
}

std::int64_t now_ns() {
    static const common::Stopwatch kClock;
    return kClock.elapsed_nanos();
}

double median(std::vector<double> values) { return quartile(std::move(values), 2); }

double quartile(std::vector<double> values, int q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n == 1) return values.front();
    // Exclusive method: position q*(n+1)/4 (1-based), clamped to the ends.
    const double pos = static_cast<double>(q) * static_cast<double>(n + 1) / 4.0;
    if (pos <= 1.0) return values.front();
    if (pos >= static_cast<double>(n)) return values.back();
    const auto lo = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    return values[lo - 1] + frac * (values[lo] - values[lo - 1]);
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
    if (sorted.empty()) return 0.0;
    const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
    const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return sorted[std::min(idx, sorted.size() - 1)];
}

double peak_rss_mb() {
    std::ifstream in{"/proc/self/status"};
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) != 0) continue;
        std::istringstream fields{line.substr(6)};
        double kb = 0.0;
        fields >> kb;
        return kb / 1024.0;
    }
    return 0.0;
}

void trim_heap() { ::malloc_trim(0); }

double warmup_seconds(const Options& options) { return options.smoke ? 0.0 : 1.0; }

RepBudget::RepBudget(double seconds, std::size_t min_reps)
    : end_ns_(now_ns() + static_cast<std::int64_t>(seconds * 1e9)), min_reps_(min_reps) {}

bool RepBudget::another() {
    const std::int64_t now = now_ns();
    if (last_ns_ >= 0) iterations_.push_back(static_cast<double>(now - last_ns_));
    last_ns_ = now;
    if (iterations_.size() < min_reps_) return true;
    return now + static_cast<std::int64_t>(median(iterations_)) <= end_ns_;
}

void AlertDigest::add(std::string_view line) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : line) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    ++count;
    sum += h;
}

std::string AlertDigest::to_string() const {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%llu:%016llx", static_cast<unsigned long long>(count),
                  static_cast<unsigned long long>(sum));
    return buf;
}

double Quality::f1() const {
    const double denom = precision + recall;
    return denom > 0.0 ? 2.0 * precision * recall / denom : 0.0;
}

void Result::fail(std::uint64_t units, const std::string& why) {
    failed += units;
    if (errors.size() < 16) errors.push_back(why);
}

void Result::add(std::string name, std::string unit, std::vector<double> samples) {
    const double value = median(samples);
    add(std::move(name), std::move(unit), value, std::move(samples));
}

void Result::add(std::string name, std::string unit, double value, std::vector<double> samples) {
    end_to_end.push_back({std::move(name), std::move(unit), value, std::move(samples)});
}

void Result::layer(std::string name, std::string unit, double value) {
    layers.push_back({std::move(name), std::move(unit), value, {}});
}

common::Expected<TraceFiles> write_seeded_trace(const Options& options, std::size_t frames,
                                                const std::string& stem) {
    using Result = common::Expected<TraceFiles>;
    replay::LabeledTrace trace;
    if (frames > 0) {
        replay::ScenarioTraceSource::Options src;
        src.first_seed = input_seed(options.seed);
        src.target_frames = frames;
        // One thread keeps the allocator's history, and so the measured
        // peak RSS, the same from run to run.
        src.jobs = 1;
        // A scenario epoch records ~50 frames; leave room well past the target.
        src.max_epochs = frames;
        auto loaded = replay::ScenarioTraceSource{src}.load();
        if (!loaded.ok()) return Result::failure(loaded.error());
        trace = std::move(loaded).value();
    } else {
        trace.seed = input_seed(options.seed);
        trace.origin = "scenario-gen";
    }
    TraceFiles files;
    files.pcap = options.work_dir + "/" + stem + ".pcap";
    files.labels = files.pcap + ".labels.json";
    auto written = replay::write_trace(trace, files.pcap, files.labels, "arpsec-bench");
    if (!written.ok()) return Result::failure(written.error());
    return files;
}

Ledger::Id Ledger::open(const std::string& name, Id parent) {
    const Id id = next_++;
    open_[id] = {name, now_ns(), parent};
    return id;
}

void Ledger::close(Id id) {
    const auto it = open_.find(id);
    if (it == open_.end()) return;
    const Open& span = it->second;
    tracer_.complete(span.name, "structure", common::SimTime{span.start},
                     common::Duration{now_ns() - span.start},
                     {{"id", std::to_string(id)},
                      {"parent", std::to_string(span.parent)},
                      {"rep", std::to_string(rep_)}});
    open_.erase(it);
}

void Ledger::layer(const std::string& name, std::int64_t start_ns, std::int64_t dur_ns, Id parent,
                   std::uint64_t units) {
    Totals& t = layers_[name];
    t.ns += dur_ns;
    t.units += units;
    const Id id = next_++;
    tracer_.complete(name, name.substr(0, name.find('.')), common::SimTime{start_ns},
                     common::Duration{dur_ns},
                     {{"id", std::to_string(id)},
                      {"parent", std::to_string(parent)},
                      {"rep", std::to_string(rep_)},
                      {"units", std::to_string(units)}});
}

std::int64_t Ledger::self_ns(const std::string& layer) const {
    const auto it = layers_.find(layer);
    return it == layers_.end() ? 0 : it->second.ns;
}

std::uint64_t Ledger::units(const std::string& layer) const {
    const auto it = layers_.find(layer);
    return it == layers_.end() ? 0 : it->second.units;
}

std::int64_t Ledger::self_ns_prefix(const std::string& prefix) const {
    std::int64_t total = 0;
    for (const auto& [name, t] : layers_) {
        if (name.rfind(prefix, 0) == 0) total += t.ns;
    }
    return total;
}

std::int64_t Ledger::total_self_ns() const { return self_ns_prefix(""); }

bool Ledger::write(const std::string& path) const { return tracer_.write_chrome_trace(path); }

double clock_read_ns() {
    constexpr int kReads = 1001;
    std::vector<double> gaps;
    gaps.reserve(kReads);
    std::int64_t prev = now_ns();
    for (int i = 0; i < kReads; ++i) {
        const std::int64_t t = now_ns();
        gaps.push_back(static_cast<double>(t - prev));
        prev = t;
    }
    return median(std::move(gaps));
}

}  // namespace arpsec::bench

#pragma once

// Shared pieces of arpsec-bench, the repository's seeded benchmark: the
// result record every workload fills, repetition statistics, the
// order-independent alert digest, and the traced run's span ledger.
// README.md (next to this directory's CMakeLists.txt) documents the
// workloads and every metric.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.hpp"
#include "replay/trace.hpp"
#include "telemetry/json.hpp"
#include "telemetry/trace.hpp"

namespace arpsec::bench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    /// Measuring budget of one invocation; a traced invocation spends half
    /// of it untraced and then runs the traced pass.
    double seconds = 10.0;
    bool smoke = false;
    /// Chrome trace output; empty means no traced pass.
    std::string trace_path;
    std::string out_path;
    /// Scratch directory for the generated pcap and the Unix socket.
    std::string work_dir = ".";

    [[nodiscard]] bool traced() const { return !trace_path.empty(); }
    /// Budget of the untraced repetitions.
    [[nodiscard]] double untraced_seconds() const { return traced() ? seconds / 2 : seconds; }
};

/// Input sizes. Full sizes are the workload definitions in README.md;
/// smoke sizes keep the self-test under a few seconds.
struct Sizes {
    std::size_t trace_frames;
    std::size_t paced_rate_fps;
    std::size_t check_block_seeds;
};
[[nodiscard]] Sizes sizes_for(const Options& options);

/// The four schemes that see attacks from the offline monitor vantage.
/// Quality figures and the serve workloads use exactly these.
[[nodiscard]] const std::vector<std::string>& monitor_schemes();

/// Maps the benchmark seed to the first generator seed, so that different
/// benchmark seeds draw disjoint scenario ranges.
[[nodiscard]] std::uint64_t input_seed(std::uint64_t seed);

/// Wall-clock nanoseconds since the benchmark started (common::Stopwatch).
[[nodiscard]] std::int64_t now_ns();

[[nodiscard]] double median(std::vector<double> values);
/// Quartile q in {1, 2, 3}, interpolated like Python's
/// statistics.quantiles(values, n=4) (exclusive method).
[[nodiscard]] double quartile(std::vector<double> values, int q);
/// Nearest-rank percentile (p in [0, 100]) of an already sorted sample.
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted, double p);

/// VmHWM of this process in MB (0 when /proc is unavailable).
[[nodiscard]] double peak_rss_mb();
/// Hands memory freed by earlier repetitions back to the system
/// (malloc_trim), so each repetition starts from live data: the process
/// peak is then that of one repetition, not of however much the allocator
/// kept from the ones before, and every repetition pays its own page
/// faults, as a fresh process does.
void trim_heap();

/// Untimed warm-up before the timed repetitions: caches, page mappings and
/// the host's scheduling of our threads settle first.
[[nodiscard]] double warmup_seconds(const Options& options);

/// Appends setup samples (seconds per call of the workload's empty-input
/// run). Called before every timed repetition, so the setup_s median spans
/// the whole run instead of one moment of it; on the 4-vCPU host the
/// sub-microsecond sim-check setup read 0.8 µs or 1.15 µs depending on
/// when it was sampled. Each sample repeats the call until
/// it spans 2 ms, so costs far below a microsecond are not read at clock
/// granularity. False when a call fails.
[[nodiscard]] bool sample_setup(std::vector<double>& out, const auto& call) {
    constexpr int kSamplesPerRepetition = 5;
    for (int i = 0; i < kSamplesPerRepetition; ++i) {
        std::uint64_t calls = 0;
        const std::int64_t start = now_ns();
        std::int64_t elapsed = 0;
        do {
            if (!call()) return false;
            ++calls;
            elapsed = now_ns() - start;
        } while (elapsed < 2'000'000);
        out.push_back(static_cast<double>(elapsed) / 1e9 / static_cast<double>(calls));
    }
    return true;
}

/// Repetition budget: at least `min_reps` iterations, then another only
/// while the median iteration so far still fits before the deadline, so a
/// run ends close to its budget. Call another() at the top of each loop.
class RepBudget {
public:
    RepBudget(double seconds, std::size_t min_reps);
    [[nodiscard]] bool another();

private:
    std::int64_t end_ns_;
    std::size_t min_reps_;
    std::int64_t last_ns_ = -1;
    std::vector<double> iterations_;
};

/// Order-independent digest of an alert multiset: the count and the
/// wrapping sum of FNV-1a 64-bit hashes of each alert's canonical
/// serve::alert_line. O(n), no sort, no second copy of the alerts.
struct AlertDigest {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;

    void add(std::string_view line);
    bool operator==(const AlertDigest&) const = default;
    [[nodiscard]] std::string to_string() const;
};

/// Macro-averaged detection quality over a set of schemes.
struct Quality {
    double precision = 0.0;
    double recall = 0.0;
    /// Harmonic mean of the macro precision and recall: the `quality`
    /// end-to-end metric of the replay and serve workloads.
    [[nodiscard]] double f1() const;
};

/// One metric: the reported value and its samples across repetitions.
struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
    std::vector<double> samples;
};

/// What one invocation measured and checked.
struct Result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::size_t repetitions = 0;
    std::vector<std::string> errors;
    std::vector<Metric> end_to_end;
    std::vector<Metric> layers;
    /// Workload-specific evidence (digests, failing seeds, sample counts).
    telemetry::Json details = telemetry::Json::object();

    /// Counts `units` failed operations and keeps the first few reasons.
    void fail(std::uint64_t units, const std::string& why);
    /// An end-to-end metric reported as the median of its samples.
    void add(std::string name, std::string unit, std::vector<double> samples);
    /// An end-to-end metric whose value is computed otherwise (a pooled
    /// percentile); the samples still give its quartiles.
    void add(std::string name, std::string unit, double value, std::vector<double> samples);
    void layer(std::string name, std::string unit, double value);
};

/// The workload's trace, generated from the seed by ScenarioTraceSource and
/// written once as a pcap plus its labels sidecar with replay::write_trace.
struct TraceFiles {
    std::string pcap;
    std::string labels;
};
[[nodiscard]] common::Expected<TraceFiles> write_seeded_trace(const Options& options,
                                                              std::size_t frames,
                                                              const std::string& stem);

/// Span store and per-layer self-time ledger of a traced run. Timestamps
/// are wall-clock nanoseconds (now_ns()); spans stay in memory in a
/// telemetry::EventTracer and are written as Chrome trace JSON at exit.
/// Layer spans are leaves, so a layer span's duration is its self time;
/// structural spans (repetition, batch, scheme) only group them and carry
/// no self time in the ledger. Every span records its parent id and the
/// repetition it belongs to.
class Ledger {
public:
    using Id = std::uint64_t;
    static constexpr Id kRoot = 0;

    /// Opens a structural span starting now.
    Id open(const std::string& name, Id parent);
    void close(Id id);

    /// Records a layer span and adds `dur_ns` to the layer's self time;
    /// `units` counts the frames, alerts or calls it covered.
    void layer(const std::string& name, std::int64_t start_ns, std::int64_t dur_ns, Id parent,
               std::uint64_t units);

    void set_repetition(std::uint64_t rep) { rep_ = rep; }

    [[nodiscard]] std::int64_t self_ns(const std::string& layer) const;
    [[nodiscard]] std::uint64_t units(const std::string& layer) const;
    /// Sum of self time over every layer whose name starts with `prefix`.
    [[nodiscard]] std::int64_t self_ns_prefix(const std::string& prefix) const;
    [[nodiscard]] std::int64_t total_self_ns() const;

    [[nodiscard]] bool write(const std::string& path) const;

private:
    struct Open {
        std::string name;
        std::int64_t start = 0;
        Id parent = kRoot;
    };
    struct Totals {
        std::int64_t ns = 0;
        std::uint64_t units = 0;
    };

    telemetry::EventTracer tracer_;
    std::map<Id, Open> open_;
    std::map<std::string, Totals> layers_;
    Id next_ = 1;
    std::uint64_t rep_ = 0;
};

/// Median cost of one now_ns() call, for reading per-call layer timings.
[[nodiscard]] double clock_read_ns();

void run_replay_all(const Options& options, Result& result);
void run_serve(const Options& options, bool paced, Result& result);
void run_sim_check(const Options& options, Result& result);

}  // namespace arpsec::bench

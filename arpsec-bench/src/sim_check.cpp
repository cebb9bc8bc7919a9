// sim-check: the deterministic simulation checker. Each repetition is one
// check::run_check call over a block of consecutive seeds, drawing schemes
// from every registered scheme (arpsec-check's default pool). Schemes run
// at their native host, switch or crypto vantage; the pcap, stream and
// serve layers are not on this path.

#include <algorithm>
#include <map>

#include "bench.hpp"
#include "check/checker.hpp"
#include "check/harness.hpp"
#include "check/oracle.hpp"
#include "check/scenario_gen.hpp"
#include "check/shrinker.hpp"
#include "detect/registry.hpp"

namespace arpsec::bench {

namespace {

std::string verdict(const std::vector<check::Violation>& violations) {
    std::string out;
    for (const check::Violation& v : violations) out += "[" + v.oracle + "] " + v.detail + "\n";
    return out;
}

check::CheckOptions check_options(std::uint64_t first_seed, std::size_t seeds) {
    check::CheckOptions opts;
    opts.first_seed = first_seed;
    opts.seeds = seeds;
    // One worker, arpsec-check's default. With two, the same block took
    // either ~0.55 s or ~1.1 s on the 4-vCPU host depending on where the
    // second worker landed, which no run length averages out.
    opts.jobs = 1;
    opts.gen.schemes.clear();
    const detect::Registry registry;
    for (const auto& entry : registry.entries()) opts.gen.schemes.push_back(entry.name);
    return opts;
}

/// Generation, harness run and shrinking timed per seed on one thread over
/// the first block's seeds; one span per call.
void traced_pass(const Options& options, const check::CheckOptions& block,
                 const std::map<std::uint64_t, std::string>& failing, double untraced_s_per_seed,
                 Result& result) {
    const detect::Registry registry;
    const auto oracles = check::default_oracles();
    const check::Harness harness{registry, oracles};
    const check::ScenarioGen gen{block.gen};
    const check::Shrinker shrinker{harness, {block.shrink_max_runs}};

    Ledger ledger;
    ledger.set_repetition(1);
    const std::int64_t start = now_ns();
    const Ledger::Id rep = ledger.open("sim-check", Ledger::kRoot);
    std::uint64_t frames = 0;
    std::map<std::string, std::uint64_t> scenarios;
    for (std::size_t i = 0; i < block.seeds; ++i) {
        const std::uint64_t seed = block.first_seed + i;
        const Ledger::Id sid = ledger.open("seed", rep);
        std::int64_t t = now_ns();
        const check::CheckScenario scenario = gen.generate(seed);
        ledger.layer("check.gen", t, now_ns() - t, sid, 1);
        t = now_ns();
        const check::RunOutcome outcome = harness.run(scenario);
        ledger.layer("check.run." + scenario.scheme, t, now_ns() - t, sid, outcome.frames);
        frames += outcome.frames;
        ++scenarios[scenario.scheme];
        const auto known = failing.find(seed);
        std::vector<check::Violation> violations = outcome.violations;
        if (!outcome.passed() && !scenario.events.empty()) {
            t = now_ns();
            check::ShrinkResult shrunk = shrinker.shrink(scenario, violations.front().oracle);
            ledger.layer("check.shrink", t, now_ns() - t, sid, shrunk.runs);
            violations = std::move(shrunk.violations);
        }
        if (outcome.passed() != (known == failing.end()) ||
            (known != failing.end() && known->second != verdict(violations))) {
            result.fail(1, "traced: seed " + std::to_string(seed) +
                               " verdict differs from run_check");
        }
        ledger.close(sid);
    }
    ledger.close(rep);
    const double wall_ns = static_cast<double>(now_ns() - start);
    if (!ledger.write(options.trace_path)) {
        result.fail(1, "cannot write trace " + options.trace_path);
    }

    const auto n = static_cast<double>(block.seeds);
    const std::int64_t run_ns = ledger.self_ns_prefix("check.run.");
    result.layer("check.gen.us_per_scenario", "us",
                 static_cast<double>(ledger.self_ns("check.gen")) / n / 1e3);
    result.layer("check.run.us_per_scenario", "us", static_cast<double>(run_ns) / n / 1e3);
    result.layer("check.run.ns_per_frame", "ns/frame",
                 static_cast<double>(run_ns) /
                     static_cast<double>(std::max<std::uint64_t>(1, frames)));
    for (const std::string& scheme : block.gen.schemes) {
        const auto it = scenarios.find(scheme);
        const double count = it == scenarios.end() ? 0.0 : static_cast<double>(it->second);
        result.layer("check.run." + scheme + ".us_per_scenario", "us",
                     count > 0 ? static_cast<double>(ledger.self_ns("check.run." + scheme)) /
                                     count / 1e3
                               : 0.0);
    }
    result.layer("check.shrink.runs", "count",
                 static_cast<double>(ledger.units("check.shrink")));
    result.layer("check.shrink.ms", "ms",
                 static_cast<double>(ledger.self_ns("check.shrink")) / 1e6);
    result.layer("trace.residual_pct", "%",
                 100.0 * (1.0 - static_cast<double>(ledger.total_self_ns()) / wall_ns));
    result.layer("trace.overhead_pct", "%",
                 100.0 * (wall_ns / 1e9 / n / untraced_s_per_seed - 1.0));
}

}  // namespace

void run_sim_check(const Options& options, Result& result) {
    const Sizes sizes = sizes_for(options);
    const std::size_t block = sizes.check_block_seeds;
    const std::uint64_t first = input_seed(options.seed);

    // The warm-up checks the seeds just below the measured range.
    const std::int64_t warmup_end =
        now_ns() + static_cast<std::int64_t>(warmup_seconds(options) * 1e9);
    for (std::size_t k = 1; now_ns() < warmup_end; ++k) {
        (void)check::run_check(check_options(first - k * block, block));
    }

    // setup_s: the same call on zero seeds — registry, oracle set and
    // generator construction plus the worker fan-out.
    const check::CheckOptions no_seeds = check_options(first, 0);
    std::vector<double> setup;
    std::vector<double> throughput;
    std::vector<double> latency_ms;
    std::map<std::uint64_t, std::string> failing;
    RepBudget budget{options.untraced_seconds(), 2};
    for (std::size_t k = 0; budget.another(); ++k) {
        if (!sample_setup(setup, [&] { return check::run_check(no_seeds).results.empty(); })) {
            result.fail(1, "setup: zero seeds produced results");
            return;
        }
        const check::CheckOptions opts = check_options(first + k * block, block);
        trim_heap();
        const std::int64_t t = now_ns();
        const check::CheckReport report = check::run_check(opts);
        const double wall = static_cast<double>(now_ns() - t) / 1e9;
        result.attempted += block;
        throughput.push_back(static_cast<double>(block) / wall);
        latency_ms.push_back(wall * 1e3);
        if (report.results.size() != block) {
            result.fail(block, "run_check returned " + std::to_string(report.results.size()) +
                                   " of " + std::to_string(block) + " seeds");
            continue;
        }
        for (const check::SeedResult& r : report.results) {
            if (!r.error.empty()) {
                result.fail(1, "seed " + std::to_string(r.seed) + ": " + r.error);
            } else if (r.failed) {
                // A failing seed is the checker's verdict, not a failed
                // operation; it is listed and must reproduce exactly.
                failing[r.seed] = verdict(r.violations);
            }
        }
    }
    result.repetitions = throughput.size();

    // Verdicts must be deterministic: every failing seed re-run alone (one
    // worker) must fail with the identical shrunk violations.
    for (const auto& [seed, text] : failing) {
        check::CheckOptions again = check_options(seed, 1);
        again.jobs = 1;
        const check::CheckReport report = check::run_check(again);
        if (report.results.size() != 1 || !report.results.front().failed ||
            verdict(report.results.front().violations) != text) {
            result.fail(1, "seed " + std::to_string(seed) + " did not reproduce its verdict");
        }
    }

    const double attempted = static_cast<double>(result.attempted);
    result.add("setup_s", "s", setup);
    result.add("peak_rss_mb", "MB", {peak_rss_mb()});
    result.add("throughput_per_s", "1/s", throughput);
    result.add("latency_p50_ms", "ms", latency_ms);
    result.add("quality", "ratio",
               {1.0 - static_cast<double>(failing.size()) / std::max(1.0, attempted)});
    telemetry::Json seeds = telemetry::Json::array();
    for (const auto& [seed, text] : failing) seeds.push_back(seed);
    result.details["failing_seeds"] = std::move(seeds);
    result.details["seeds_checked"] = result.attempted;
    result.layer("check.failing_seeds", "count", static_cast<double>(failing.size()));

    if (options.traced() && result.failed == 0) {
        std::map<std::uint64_t, std::string> first_block;
        for (const auto& [seed, text] : failing) {
            if (seed < first + block) first_block.emplace(seed, text);
        }
        traced_pass(options, check_options(first, block), first_block,
                    median(latency_ms) / 1e3 / static_cast<double>(block), result);
    }
}

}  // namespace arpsec::bench

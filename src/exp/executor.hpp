#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace arpsec::exp {

/// The most worker threads a --jobs flag may ask for; each tool refuses
/// more, so a typo cannot start thousands of threads.
inline constexpr std::size_t kMaxJobs = 256;

/// Outcome slot of one task in a parallel map: either a value or the
/// message of the exception that aborted the task.
template <typename T>
struct Outcome {
    T value{};
    bool failed = false;
    std::string error;
};

/// Runs body(i) for every i in [0, n) on a pool of `jobs` std::thread
/// workers (inline when jobs <= 1), capturing any exception per index.
/// Returns per-index error strings ("" = success) in index order.
///
/// Workers pull indices from a shared atomic counter, so scheduling is
/// dynamic — but the output is positionally stable: as long as body(i) is
/// deterministic and touches no state shared across indices, results are
/// byte-identical for every job count. That independence is what the
/// no-threads-in-sim lint rule protects: each index builds its own
/// Network/Rng from its seed, and nothing below src/exp/ may spawn threads.
std::vector<std::string> run_indexed(std::size_t n, std::size_t jobs,
                                     const std::function<void(std::size_t)>& body);

/// Yields the calling thread's timeslice (std::this_thread::yield). Spin
/// loops in test code must call this instead of including <thread> — exp is
/// the sanctioned concurrency site, and a spin without a yield can pin a
/// single-core runner for an entire scheduling quantum per iteration.
void yield_thread() noexcept;

/// Sleeps the calling thread (std::this_thread::sleep_for) — the exp-routed
/// alternative to including <thread> for a wall-clock pause in test code.
void sleep_millis(unsigned ms);

/// Runs `peer` on a dedicated thread while `body` runs on the calling
/// thread, then joins — the sanctioned entry point for two-role
/// (client/server) concurrency in serve tests and benches. run_indexed
/// cannot express this: its workers pull from a shared counter, so one
/// worker may run both roles sequentially, deadlocking a peer that blocks
/// on the body's output. Returns the peer's exception message ("" when it
/// completed cleanly); a `body` exception propagates on the caller after
/// the peer is joined.
std::string run_pair(const std::function<void()>& peer,
                     const std::function<void()>& body);

/// Deterministic parallel map: out[i] = fn(i). T must be default- and
/// move-constructible; a throwing fn marks only its own slot failed.
template <typename T, typename Fn>
std::vector<Outcome<T>> map_indexed(std::size_t n, std::size_t jobs, Fn&& fn) {
    std::vector<Outcome<T>> out(n);
    auto errors = run_indexed(n, jobs, [&](std::size_t i) { out[i].value = fn(i); });
    for (std::size_t i = 0; i < n; ++i) {
        if (errors[i].empty()) continue;
        out[i].failed = true;
        out[i].error = std::move(errors[i]);
    }
    return out;
}

/// Declarative case map for benches whose points are not ScenarioRunner
/// sweeps (taxonomy cells, custom topologies): out[i] = fn(cases[i]).
template <typename T, typename Case, typename Fn>
std::vector<Outcome<T>> map_cases(const std::vector<Case>& cases, std::size_t jobs,
                                  Fn&& fn) {
    return map_indexed<T>(cases.size(), jobs, [&](std::size_t i) { return fn(cases[i]); });
}

/// Row-major cross product (a outer, b inner) — the declarative
/// replacement for the benches' hand-rolled nested loops.
template <typename A, typename B>
std::vector<std::pair<A, B>> cross(const std::vector<A>& as, const std::vector<B>& bs) {
    std::vector<std::pair<A, B>> out;
    out.reserve(as.size() * bs.size());
    for (const auto& a : as) {
        for (const auto& b : bs) out.emplace_back(a, b);
    }
    return out;
}

}  // namespace arpsec::exp

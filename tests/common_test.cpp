#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "common/expected.hpp"
#include "common/file.hpp"
#include "common/hex.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"
#include "exp/executor.hpp"

namespace arpsec::common {
namespace {

// ---------------------------------------------------------------------------
// Duration / SimTime
// ---------------------------------------------------------------------------

TEST(DurationTest, FactoryUnitsConvert) {
    EXPECT_EQ(Duration::nanos(7).count(), 7);
    EXPECT_EQ(Duration::micros(3).count(), 3'000);
    EXPECT_EQ(Duration::millis(2).count(), 2'000'000);
    EXPECT_EQ(Duration::seconds(1).count(), 1'000'000'000);
}

TEST(DurationTest, Arithmetic) {
    const Duration a = Duration::millis(5);
    const Duration b = Duration::millis(3);
    EXPECT_EQ((a + b).count(), Duration::millis(8).count());
    EXPECT_EQ((a - b).count(), Duration::millis(2).count());
    EXPECT_EQ((a * 4).count(), Duration::millis(20).count());
    EXPECT_EQ((a / 5).count(), Duration::millis(1).count());
}

TEST(DurationTest, Comparisons) {
    EXPECT_LT(Duration::micros(999), Duration::millis(1));
    EXPECT_EQ(Duration::seconds(1), Duration::millis(1000));
    EXPECT_GT(Duration::zero(), Duration::nanos(-5));
}

TEST(DurationTest, ConversionsToFloating) {
    EXPECT_DOUBLE_EQ(Duration::millis(1500).to_seconds(), 1.5);
    EXPECT_DOUBLE_EQ(Duration::micros(250).to_millis(), 0.25);
    EXPECT_DOUBLE_EQ(Duration::nanos(1500).to_micros(), 1.5);
}

TEST(DurationTest, ToStringPicksNaturalUnit) {
    EXPECT_EQ(Duration::seconds(3).to_string(), "3s");
    EXPECT_EQ(Duration::millis(250).to_string(), "250ms");
    EXPECT_EQ(Duration::micros(17).to_string(), "17us");
    EXPECT_EQ(Duration::nanos(999).to_string(), "999ns");
}

TEST(SimTimeTest, AdvancesByDuration) {
    SimTime t;
    t += Duration::seconds(2);
    EXPECT_EQ(t.nanos(), 2'000'000'000);
    const SimTime u = t + Duration::millis(500);
    EXPECT_EQ((u - t).count(), Duration::millis(500).count());
    EXPECT_LT(t, u);
}

TEST(DurationTest, ToStringFractionalValues) {
    // Exactly divisible values use the integral unit...
    EXPECT_EQ(Duration::nanos(1'500'000'000).to_string(), "1500ms");
    // ...anything else prints fractionally at its natural magnitude.
    EXPECT_EQ(Duration::nanos(1'500'000'001).to_string(), "1.500s");
    EXPECT_EQ(Duration::nanos(2'340'500).to_string(), "2.34ms");
    EXPECT_EQ(Duration::nanos(19'600).to_string(), "19.60us");
    EXPECT_EQ(Duration::nanos(42).to_string(), "42ns");
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next_u64() == b.next_u64()) ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(RngTest, ForkedStreamsAreIndependent) {
    Rng root(7);
    Rng a = root.fork(1);
    Rng b = root.fork(2);
    Rng a2 = Rng(7).fork(1);
    // Same (seed, stream) reproduces; different streams diverge.
    EXPECT_EQ(a.next_u64(), a2.next_u64());
    EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(RngTest, NextBelowIsInRange) {
    Rng rng(99);
    for (int i = 0; i < 10'000; ++i) {
        EXPECT_LT(rng.next_below(17), 17u);
    }
}

TEST(RngTest, NextBelowCoversAllResidues) {
    Rng rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NextInInclusiveBounds) {
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const std::int64_t v = rng.next_in(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
    }
}

TEST(RngTest, NextDoubleInUnitInterval) {
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.next_double();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(RngTest, ChanceExtremes) {
    Rng rng(17);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
}

TEST(RngTest, ChanceRoughlyCalibrated) {
    Rng rng(19);
    int hits = 0;
    const int n = 20'000;
    for (int i = 0; i < n; ++i) {
        if (rng.chance(0.25)) ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(RngTest, ExponentialMeanRoughlyCorrect) {
    Rng rng(23);
    const Duration mean = Duration::millis(10);
    double acc = 0;
    const int n = 20'000;
    for (int i = 0; i < n; ++i) acc += static_cast<double>(rng.next_exponential(mean).count());
    EXPECT_NEAR(acc / n, static_cast<double>(mean.count()),
                0.05 * static_cast<double>(mean.count()));
}

// ---------------------------------------------------------------------------
// Hex
// ---------------------------------------------------------------------------

TEST(HexTest, RoundTrip) {
    const std::vector<std::uint8_t> data = {0x00, 0x01, 0xAB, 0xFF, 0x7E};
    const std::string hex = to_hex(data);
    EXPECT_EQ(hex, "0001abff7e");
    EXPECT_EQ(from_hex(hex), data);
}

TEST(HexTest, ParsesUppercase) {
    EXPECT_EQ(from_hex("DEADBEEF"), (std::vector<std::uint8_t>{0xDE, 0xAD, 0xBE, 0xEF}));
}

TEST(HexTest, RejectsMalformed) {
    EXPECT_TRUE(from_hex("abc").empty());   // odd length
    EXPECT_TRUE(from_hex("zz").empty());    // bad digit
}

TEST(HexTest, HexdumpShowsOffsetsAndAscii) {
    std::vector<std::uint8_t> data(20, 0x41);  // 'A'
    const std::string dump = hexdump(data);
    EXPECT_NE(dump.find("000000"), std::string::npos);
    EXPECT_NE(dump.find("AAAA"), std::string::npos);
    EXPECT_NE(dump.find("000010"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Expected
// ---------------------------------------------------------------------------

TEST(ExpectedTest, HoldsValueOrError) {
    Expected<int> ok = 42;
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.value(), 42);
    EXPECT_EQ(*ok, 42);

    const auto bad = Expected<int>::failure("nope");
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.error(), "nope");
}

TEST(ExpectedTest, ArrowAccessesMembers) {
    struct P {
        int x = 7;
    };
    Expected<P> e = P{};
    EXPECT_EQ(e->x, 7);
}

TEST(ExpectedTest, MutableAccessWritesThrough) {
    struct P {
        int x = 7;
    };
    Expected<P> e = P{};
    e->x = 8;
    EXPECT_EQ(e->x, 8);
    (*e).x = 9;
    EXPECT_EQ(e.value().x, 9);
}

TEST(ExpectedTest, RvalueAccessMoves) {
    Expected<std::string> e = std::string{"payload"};
    const std::string moved = *std::move(e);
    EXPECT_EQ(moved, "payload");

    Expected<int> failed = Expected<int>::failure("gone");
    const std::string err = std::move(failed).error();
    EXPECT_EQ(err, "gone");
}

// ---------------------------------------------------------------------------
// parse_number / split_list / ArgReader
// ---------------------------------------------------------------------------

// One row per input: the bounds it is read against and what it must give.
template <class T>
struct NumberCase {
    const char* text;
    T lo;
    T hi;
    std::optional<T> want;
};

template <class T>
void expect_numbers(const std::vector<NumberCase<T>>& cases) {
    for (const auto& c : cases) {
        EXPECT_EQ(parse_number<T>(c.text, c.lo, c.hi), c.want)
            << "'" << c.text << "' in [" << c.lo << ", " << c.hi << "]";
    }
}

TEST(ParseNumberTest, UnsignedTable) {
    constexpr std::size_t kMax = SIZE_MAX;
    expect_numbers<std::size_t>({
        {"1", 1, 256, 1},
        {"256", 1, 256, 256},
        {"0", 1, 256, std::nullopt},    // below the bound (--jobs 0)
        {"257", 1, 256, std::nullopt},  // above the bound
        {"abc", 0, kMax, std::nullopt},
        {"12x", 0, kMax, std::nullopt},
        {"", 0, kMax, std::nullopt},
        {"+5", 0, kMax, std::nullopt},
        {" 5", 0, kMax, std::nullopt},
        {"5 ", 0, kMax, std::nullopt},
        {"-1", 0, kMax, std::nullopt},  // no wrap to 2^64-1
        {"-0", 0, kMax, std::nullopt},
        {"0x10", 0, kMax, std::nullopt},
        {"1e3", 0, kMax, std::nullopt},
        {"18446744073709551615", 0, kMax, kMax},
        {"18446744073709551616", 0, kMax, std::nullopt},  // overflow
    });
    expect_numbers<std::uint16_t>({
        {"1", 1, 65535, 1},
        {"65535", 1, 65535, 65535},
        {"0", 1, 65535, std::nullopt},
        {"65536", 1, 65535, std::nullopt},
    });
}

TEST(ParseNumberTest, SignedTable) {
    constexpr std::int64_t kMs = Duration::kMaxMillis;
    expect_numbers<std::int64_t>({
        {"0", 0, kMs, 0},
        {"9223372036854", 0, kMs, kMs},
        {"9223372036855", 0, kMs, std::nullopt},  // would overflow the ns clock
        {"-1", 0, kMs, std::nullopt},
        {"9223372036854775808", 0, INT64_MAX, std::nullopt},
    });
    expect_numbers<int>({
        {"-1", INT32_MIN, INT32_MAX, -1},
        {"-2147483648", INT32_MIN, INT32_MAX, INT32_MIN},
        {"2147483647", INT32_MIN, INT32_MAX, INT32_MAX},
        {"2147483648", INT32_MIN, INT32_MAX, std::nullopt},
        {"-2147483649", INT32_MIN, INT32_MAX, std::nullopt},
        {"--1", INT32_MIN, INT32_MAX, std::nullopt},
        {"+1", INT32_MIN, INT32_MAX, std::nullopt},
    });
}

TEST(ParseNumberTest, DoubleTable) {
    expect_numbers<double>({
        {"0", 0.0, 1.0, 0.0},
        {"1", 0.0, 1.0, 1.0},
        {"0.25", 0.0, 1.0, 0.25},
        {"1e-3", 0.0, 1.0, 0.001},
        {"1.5", 0.0, 1.0, std::nullopt},
        {"-0.1", 0.0, 1.0, std::nullopt},
        {"0.5x", 0.0, 1.0, std::nullopt},
        {" 0.5", 0.0, 1.0, std::nullopt},
        {"+0.5", 0.0, 1.0, std::nullopt},
        {"abc", 0.0, 1.0, std::nullopt},
        {"nan", 0.0, 1.0, std::nullopt},
        {"inf", 0.0, 1.0, std::nullopt},
        {"1e400", 0.0, 1.0, std::nullopt},  // overflow
    });
}

TEST(SplitListTest, DropsEmptyItems) {
    using List = std::vector<std::string>;
    EXPECT_EQ(split_list("arpwatch"), List{"arpwatch"});
    EXPECT_EQ(split_list("a,b"), (List{"a", "b"}));
    EXPECT_EQ(split_list("a,,b,"), (List{"a", "b"}));
    EXPECT_EQ(split_list(",a"), List{"a"});
    EXPECT_EQ(split_list(""), List{});
    EXPECT_EQ(split_list(",,"), List{});
}

// Runs an ArgReader over `argv` the way the tools do: --jobs N (1-256),
// --out FILE, --schemes LIST, --grace-ms MS and the --smoke switch.
struct Parsed {
    std::size_t jobs = 1;
    std::string out = "default";
    std::vector<std::string> schemes;
    Duration grace = Duration::millis(7);
    bool smoke = false;
    std::string error;
};

Parsed parse(std::vector<const char*> argv) {
    argv.insert(argv.begin(), "prog");
    Parsed p;
    ArgReader args{static_cast<int>(argv.size()), const_cast<char**>(argv.data())};
    while (args.next()) {
        if (args.is("--jobs")) {
            args.number(p.jobs, 1, 256);
        } else if (args.is("--out")) {
            args.value(p.out);
        } else if (args.is("--schemes")) {
            args.list(p.schemes);
        } else if (args.is("--grace-ms")) {
            args.millis(p.grace);
        } else if (args.is("--smoke")) {
            p.smoke = true;
        } else {
            args.reject();
        }
    }
    p.error = args.error();
    return p;
}

TEST(ArgReaderTest, ReadsEveryKindOfValue) {
    const Parsed p = parse({"--jobs", "4", "--out", "f.json", "--schemes", "a,,b", "--smoke",
                            "--grace-ms", "250"});
    EXPECT_EQ(p.error, "");
    EXPECT_EQ(p.jobs, 4u);
    EXPECT_EQ(p.out, "f.json");
    EXPECT_EQ(p.schemes, (std::vector<std::string>{"a", "b"}));
    EXPECT_TRUE(p.smoke);
    EXPECT_EQ(p.grace, Duration::millis(250));
    EXPECT_EQ(parse({}).error, "");
}

TEST(ArgReaderTest, FailuresNameTheFlagAndStopTheWalk) {
    struct Case {
        std::vector<const char*> argv;
        const char* error;
    };
    const std::vector<Case> cases = {
        {{"--out"}, "missing value for --out"},
        {{"--smoke", "--jobs"}, "missing value for --jobs"},
        {{"--schemes"}, "missing value for --schemes"},
        {{"--jobs", "abc"}, "bad value 'abc' for --jobs"},
        {{"--jobs", "12x"}, "bad value '12x' for --jobs"},
        {{"--jobs", "0"}, "bad value '0' for --jobs"},
        {{"--jobs", "-1"}, "bad value '-1' for --jobs"},
        {{"--grace-ms", "-1"}, "bad value '-1' for --grace-ms"},
        {{"--grace-ms", "9223372036855"}, "bad value '9223372036855' for --grace-ms"},
        {{"--bogus"}, "unknown argument '--bogus'"},
        {{"f3.runs.json"}, "unknown argument 'f3.runs.json'"},
        // The first failure wins; nothing after it is read.
        {{"--jobs", "x", "--out", "later.json", "--bogus"}, "bad value 'x' for --jobs"},
    };
    for (const Case& c : cases) {
        const Parsed p = parse(c.argv);
        EXPECT_EQ(p.error, c.error);
        EXPECT_EQ(p.out, "default") << c.error;   // a failed read leaves its target
        EXPECT_EQ(p.jobs, 1u) << c.error;
        EXPECT_EQ(p.grace, Duration::millis(7)) << c.error;
    }
}

// ---------------------------------------------------------------------------
// read_file / write_file
// ---------------------------------------------------------------------------

TEST(FileTest, WriteThenReadRoundTripsBytes) {
    const std::string path = ::testing::TempDir() + "/arpsec_common_file.bin";
    const std::string text{"line\r\n\0binary\xff tail", 19};
    ASSERT_TRUE(write_file(path, "an older, longer content to replace").ok());
    const auto written = write_file(path, text);
    ASSERT_TRUE(written.ok()) << written.error();
    const auto read = read_file(path);
    ASSERT_TRUE(read.ok()) << read.error();
    EXPECT_EQ(read.value(), text);

    // Larger than one read chunk.
    const std::string big(100'000, 'x');
    ASSERT_TRUE(write_file(path, big).ok());
    EXPECT_EQ(read_file(path).value(), big);

    ASSERT_TRUE(write_file(path, "").ok());
    EXPECT_EQ(read_file(path).value(), "");
    std::remove(path.c_str());
}

TEST(FileTest, FailuresNameThePath) {
    const std::string missing = ::testing::TempDir() + "/arpsec-no-such-dir/f.json";
    const auto no_file = read_file(missing);
    ASSERT_FALSE(no_file.ok());
    EXPECT_EQ(no_file.error(), "cannot open '" + missing + "'");

    // A directory opens, but cannot be read.
    const std::string dir = std::filesystem::temp_directory_path().string();
    const auto not_file = read_file(dir);
    ASSERT_FALSE(not_file.ok());
    EXPECT_EQ(not_file.error(), "cannot read '" + dir + "'");

    const auto no_dir = write_file(missing, "x");
    ASSERT_FALSE(no_dir.ok());
    EXPECT_EQ(no_dir.error(), "cannot write '" + missing + "': No such file or directory");

    // /dev/full takes the open and fails the write: a small text fails at the
    // close that flushes it, a large one in the write itself.
    for (const std::size_t size : {std::size_t{1}, std::size_t{1} << 20}) {
        const auto full = write_file("/dev/full", std::string(size, 'x'));
        ASSERT_FALSE(full.ok()) << size;
        EXPECT_EQ(full.error(), "cannot write '/dev/full': No space left on device") << size;
    }
}

// ---------------------------------------------------------------------------
// Log
// ---------------------------------------------------------------------------

TEST(LogTest, LevelGatesOutput) {
    const LogLevel before = Log::level();
    Log::set_level(LogLevel::kError);
    EXPECT_FALSE(Log::enabled(LogLevel::kDebug));
    EXPECT_TRUE(Log::enabled(LogLevel::kError));
    Log::set_level(LogLevel::kOff);
    EXPECT_FALSE(Log::enabled(LogLevel::kError));
    Log::set_level(before);
}

TEST(LogTest, WriteFormatsLine) {
    const std::string path = ::testing::TempDir() + "/arpsec_log_test.txt";
    std::FILE* f = std::fopen(path.c_str(), "w+");
    ASSERT_NE(f, nullptr);
    const LogLevel before = Log::level();
    Log::set_level(LogLevel::kInfo);
    Log::set_sink(f);
    Log::write(LogLevel::kWarn, SimTime{1'500'000'000}, "switch", "cam full");
    Log::set_sink(nullptr);
    Log::set_level(before);
    std::fflush(f);
    std::rewind(f);
    char buf[256] = {};
    ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
    std::fclose(f);
    std::remove(path.c_str());
    const std::string line = buf;
    EXPECT_NE(line.find("WARN"), std::string::npos);
    EXPECT_NE(line.find("switch"), std::string::npos);
    EXPECT_NE(line.find("cam full"), std::string::npos);
    EXPECT_NE(line.find("1.5"), std::string::npos);
}

// Sweep workers log concurrently, and the sink may be re-installed while
// they do, so Log::set_sink and Log::write both hold the sink's mutex. Three
// writers (components "1".."3") log numbered lines into one tmpfile() sink
// while a fourth worker keeps re-installing that same sink: every line must
// arrive whole, exactly once. A missing lock in either function is a data
// race on the sink, which the TSan CI job reports. Threads come from
// exp::run_indexed.
TEST(LogTest, ConcurrentWritesAndSinkSwapsKeepLinesWhole) {
    constexpr std::size_t kWriters = 3;
    constexpr std::size_t kLinesPerWriter = 2000;
    std::FILE* f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    const LogLevel before = Log::level();
    Log::set_level(LogLevel::kWarn);
    Log::set_sink(f);
    std::atomic<std::size_t> writers_done{0};
    const std::vector<std::string> errors =
        exp::run_indexed(kWriters + 1, kWriters + 1, [&](std::size_t worker) {
            if (worker == 0) {
                while (writers_done.load() < kWriters) Log::set_sink(f);
                return;
            }
            const std::string component = std::to_string(worker);
            for (std::size_t i = 0; i < kLinesPerWriter; ++i) {
                Log::write(LogLevel::kWarn, SimTime{}, component, "line " + std::to_string(i));
            }
            ++writers_done;
        });
    Log::set_sink(nullptr);
    Log::set_level(before);
    for (const std::string& e : errors) EXPECT_EQ(e, "");

    std::string text;
    std::rewind(f);
    char buf[4096];
    for (std::size_t n = 0; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) text.append(buf, n);
    std::fclose(f);
    std::vector<std::string> got;
    for (std::size_t at = 0, nl = 0; (nl = text.find('\n', at)) != std::string::npos; at = nl + 1) {
        got.push_back(text.substr(at, nl - at));
    }

    std::vector<std::string> want;
    for (std::size_t w = 1; w <= kWriters; ++w) {
        for (std::size_t i = 0; i < kLinesPerWriter; ++i) {
            want.push_back("[    0.000000s] WARN  " + std::to_string(w) + ": line " +
                           std::to_string(i));
        }
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(got == want) << "a log line was torn, lost or duplicated";
}

// ---------------------------------------------------------------------------
// Summary
// ---------------------------------------------------------------------------

TEST(SummaryTest, EmptyIsSafe) {
    Summary s;
    EXPECT_TRUE(s.empty());
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.median(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(SummaryTest, BasicStatistics) {
    Summary s;
    for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
    EXPECT_DOUBLE_EQ(s.median(), 3.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    EXPECT_NEAR(s.stddev(), 1.5811, 1e-3);
}

TEST(SummaryTest, Percentiles) {
    Summary s;
    for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 50.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.99), 99.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
}

// percentile() caches its sorted copy; adds and merges must invalidate it so
// interleaved add/query sequences stay correct.
TEST(SummaryTest, PercentileCacheInvalidatedByAddAndMerge) {
    Summary s;
    s.add(10.0);
    s.add(20.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 20.0);

    s.add(5.0);  // arrives out of order after a cached sort
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 5.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 20.0);

    Summary other;
    other.add(100.0);
    s.merge(other);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
}

TEST(SummaryTest, MergeCombinesSamples) {
    Summary a;
    Summary b;
    a.add(1.0);
    b.add(3.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

}  // namespace
}  // namespace arpsec::common

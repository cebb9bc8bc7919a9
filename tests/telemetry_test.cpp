// Telemetry subsystem: JSON round-trips, metrics registry semantics,
// tracer export well-formedness, and the run-artifact schema produced by a
// real ScenarioRunner run (parsed back with the same JSON parser consumers
// would use).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/artifact.hpp"
#include "core/runner.hpp"
#include "detect/scheme.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/run_artifact.hpp"
#include "telemetry/trace.hpp"

using namespace arpsec;
using telemetry::Json;

namespace {

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string temp_path(const std::string& name) { return testing::TempDir() + name; }

}  // namespace

// ---------------------------------------------------------------------------
// Json
// ---------------------------------------------------------------------------

TEST(JsonTest, BuildDumpParseRoundTrip) {
    Json doc = Json::object();
    doc["name"] = "arpsec";
    doc["count"] = std::uint64_t{42};
    doc["ratio"] = 0.25;
    doc["flag"] = true;
    doc["nothing"] = Json(nullptr);
    Json arr = Json::array();
    arr.push_back(1);
    arr.push_back("two");
    doc["list"] = std::move(arr);
    Json nested = Json::object();
    nested["inner"] = -7;
    doc["nested"] = std::move(nested);

    for (const int indent : {-1, 2}) {
        const auto parsed = Json::parse(doc.dump(indent));
        ASSERT_TRUE(parsed.has_value()) << "indent=" << indent;
        EXPECT_EQ(parsed->find("name")->as_string(), "arpsec");
        EXPECT_EQ(parsed->find("count")->as_int(), 42);
        EXPECT_DOUBLE_EQ(parsed->find("ratio")->as_double(), 0.25);
        EXPECT_TRUE(parsed->find("flag")->as_bool());
        EXPECT_TRUE(parsed->find("nothing")->is_null());
        EXPECT_EQ(parsed->find("list")->size(), 2u);
        EXPECT_EQ(parsed->find("list")->at(1).as_string(), "two");
        EXPECT_EQ(parsed->find("nested")->find("inner")->as_int(), -7);
    }
}

TEST(JsonTest, StringEscapesRoundTrip) {
    const std::string nasty = "quote\" backslash\\ newline\n tab\t ctrl\x01 end";
    Json doc = Json::object();
    doc["s"] = nasty;
    const auto parsed = Json::parse(doc.dump());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("s")->as_string(), nasty);
}

TEST(JsonTest, EscapeMatchesAPerCharacterReferenceOnRandomBytes) {
    // The reference escapes one character at a time; json_escape copies the
    // runs between escapes in bulk, and must write the same bytes.
    const auto reference = [](std::string_view s) {
        std::string out = "\"";
        for (const char c : s) {
            const auto u = static_cast<unsigned char>(c);
            switch (c) {
                case '"': out += "\\\""; break;
                case '\\': out += "\\\\"; break;
                case '\b': out += "\\b"; break;
                case '\f': out += "\\f"; break;
                case '\n': out += "\\n"; break;
                case '\r': out += "\\r"; break;
                case '\t': out += "\\t"; break;
                default:
                    if (u < 0x20) {
                        char buf[8];
                        std::snprintf(buf, sizeof(buf), "\\u%04x", u);
                        out += buf;
                    } else {
                        out.push_back(c);
                    }
            }
        }
        return out + "\"";
    };
    std::mt19937_64 rng{20070613};
    std::string all(256, '\0');  // every byte value once, in order
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<char>(i);
    std::vector<std::string> cases = {"", "plain", "\"", "\\\\", "\x1f\x20\x7f\x80\xff", all};
    for (int i = 0; i < 2000; ++i) {
        std::string s(rng() % 64, '\0');
        // Half the strings draw from all 256 values; half are mostly plain
        // text, so long unescaped runs sit between the escapes.
        for (char& c : s) {
            c = (i % 2 == 0 || rng() % 8 == 0) ? static_cast<char>(rng() & 0xFF)
                                               : static_cast<char>('a' + rng() % 26);
        }
        cases.push_back(std::move(s));
    }
    for (std::size_t i = 0; i < cases.size(); ++i) {
        std::string out = "prefix";  // escapes append
        telemetry::json_escape(out, cases[i]);
        ASSERT_EQ(out, "prefix" + reference(cases[i])) << "case " << i;
    }
}

TEST(JsonTest, ParseUnicodeEscape) {
    const auto parsed = Json::parse(R"({"s": "aéA"})");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("s")->as_string(), "a\xc3\xa9"
                                              "A");
}

TEST(JsonTest, MalformedInputsRejected) {
    EXPECT_FALSE(Json::parse("").has_value());
    EXPECT_FALSE(Json::parse("{").has_value());
    EXPECT_FALSE(Json::parse("[1,]").has_value());
    EXPECT_FALSE(Json::parse("{\"a\":1,}").has_value());
    EXPECT_FALSE(Json::parse("{\"a\" 1}").has_value());
    EXPECT_FALSE(Json::parse("\"unterminated").has_value());
    EXPECT_FALSE(Json::parse("tru").has_value());
    EXPECT_FALSE(Json::parse("1 2").has_value());
    EXPECT_FALSE(Json::parse("nan").has_value());
}

TEST(JsonTest, NumbersKeepIntegerness) {
    const auto parsed = Json::parse("[1, -3, 2.5, 1e3]");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->at(0).is_int());
    EXPECT_TRUE(parsed->at(1).is_int());
    EXPECT_TRUE(parsed->at(2).is_double());
    EXPECT_TRUE(parsed->at(3).is_double());
    EXPECT_DOUBLE_EQ(parsed->at(3).as_double(), 1000.0);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, SameNameSameTypeReturnsSameHandle) {
    telemetry::MetricsRegistry reg;
    telemetry::Counter& a = reg.counter("x.count");
    telemetry::Counter& b = reg.counter("x.count");
    EXPECT_EQ(&a, &b);
    a.inc(3);
    b.inc();
    EXPECT_EQ(reg.find_counter("x.count")->value(), 4u);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistryTest, NameCollisionAcrossTypesThrows) {
    telemetry::MetricsRegistry reg;
    reg.counter("x");
    EXPECT_THROW(reg.gauge("x"), std::logic_error);
    EXPECT_THROW(reg.histogram("x", {1.0}), std::logic_error);
    reg.gauge("g");
    EXPECT_THROW(reg.counter("g"), std::logic_error);
    reg.histogram("h", {1.0, 2.0});
    EXPECT_THROW(reg.counter("h"), std::logic_error);
    EXPECT_THROW(reg.gauge("h"), std::logic_error);
}

TEST(MetricsRegistryTest, HistogramReRegisterBoundsMismatchThrows) {
    telemetry::MetricsRegistry reg;
    telemetry::Histogram& h1 = reg.histogram("lat", {1.0, 2.0});
    telemetry::Histogram& h2 = reg.histogram("lat", {1.0, 2.0});  // same bounds: same handle
    EXPECT_EQ(&h1, &h2);
    EXPECT_THROW(reg.histogram("lat", {1.0, 3.0}), std::logic_error);
}

TEST(MetricsRegistryTest, HistogramRejectsBadBounds) {
    EXPECT_THROW(telemetry::Histogram({}), std::logic_error);
    EXPECT_THROW(telemetry::Histogram({2.0, 1.0}), std::logic_error);
}

TEST(MetricsRegistryTest, HistogramBucketBoundariesAreUpperInclusive) {
    telemetry::Histogram h({1.0, 2.0});
    h.observe(0.5);  // <= 1.0  -> bucket 0
    h.observe(1.0);  // == 1.0  -> bucket 0 (le semantics)
    h.observe(1.5);  // <= 2.0  -> bucket 1
    h.observe(2.0);  // == 2.0  -> bucket 1
    h.observe(9.0);  // > 2.0   -> overflow bucket
    ASSERT_EQ(h.bucket_counts().size(), 3u);
    EXPECT_EQ(h.bucket_counts()[0], 2u);
    EXPECT_EQ(h.bucket_counts()[1], 2u);
    EXPECT_EQ(h.bucket_counts()[2], 1u);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.sum(), 14.0);
    EXPECT_DOUBLE_EQ(h.min(), 0.5);
    EXPECT_DOUBLE_EQ(h.max(), 9.0);
}

TEST(MetricsRegistryTest, HistogramMergeFoldsBucketsAndExtremes) {
    telemetry::Histogram a({1.0, 2.0});
    a.observe(0.5);
    a.observe(9.0);
    telemetry::Histogram b({1.0, 2.0});
    b.observe(1.5);
    b.observe(0.1);
    a.merge(b);
    ASSERT_EQ(a.bucket_counts().size(), 3u);
    EXPECT_EQ(a.bucket_counts()[0], 2u);
    EXPECT_EQ(a.bucket_counts()[1], 1u);
    EXPECT_EQ(a.bucket_counts()[2], 1u);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.sum(), 11.1);
    EXPECT_DOUBLE_EQ(a.min(), 0.1);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);

    // Merging an empty histogram is a no-op, including into an empty one.
    telemetry::Histogram empty({1.0, 2.0});
    a.merge(empty);
    EXPECT_EQ(a.count(), 4u);
    telemetry::Histogram target({1.0, 2.0});
    target.merge(empty);
    EXPECT_EQ(target.count(), 0u);
    EXPECT_DOUBLE_EQ(target.min(), 0.0);
    // An empty target adopts the source's extremes rather than its zeros.
    target.merge(a);
    EXPECT_DOUBLE_EQ(target.min(), 0.1);
    EXPECT_DOUBLE_EQ(target.max(), 9.0);
}

TEST(MetricsRegistryTest, HistogramMergeRejectsMismatchedBounds) {
    telemetry::Histogram a({1.0, 2.0});
    telemetry::Histogram b({1.0, 3.0});
    EXPECT_THROW(a.merge(b), std::logic_error);
}

TEST(MetricsRegistryTest, GaugeTracksHighWater) {
    telemetry::MetricsRegistry reg;
    telemetry::Gauge& g = reg.gauge("depth");
    g.set(5);
    g.set(12);
    g.set(3);
    EXPECT_EQ(g.value(), 3);
    EXPECT_EQ(g.high_water(), 12);
}

TEST(MetricsRegistryTest, SnapshotJsonContainsAllKinds) {
    telemetry::MetricsRegistry reg;
    reg.counter("c").inc(7);
    reg.gauge("g").set(-2);
    reg.histogram("h", {10.0}).observe(4.0);
    const auto parsed = Json::parse(reg.snapshot_json().dump(2));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("counters")->find("c")->as_int(), 7);
    EXPECT_EQ(parsed->find("gauges")->find("g")->find("value")->as_int(), -2);
    const Json* h = parsed->find("histograms")->find("h");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->find("count")->as_int(), 1);
    EXPECT_EQ(h->find("bucket_counts")->size(), 2u);
}

// ---------------------------------------------------------------------------
// EventTracer
// ---------------------------------------------------------------------------

TEST(EventTracerTest, SpansAndInstantsRecordSimTime) {
    telemetry::EventTracer tr;
    const auto id = tr.begin_span("phase", "scenario", common::SimTime{1'000'000});
    tr.instant("mark", "attack", common::SimTime{2'000'000}, {{"k", "v"}});
    tr.end_span(id, common::SimTime{5'000'000});
    tr.end_span(id, common::SimTime{9'000'000});  // double-end: no-op
    ASSERT_EQ(tr.size(), 2u);
    EXPECT_EQ(tr.events()[0].dur.count(), 4'000'000);
    EXPECT_EQ(tr.events()[1].phase, telemetry::TraceEvent::Phase::kInstant);
}

TEST(EventTracerTest, ChromeTraceFileIsWellFormed) {
    telemetry::EventTracer tr;
    tr.complete("window", "scenario", common::SimTime::zero(), common::Duration::millis(10),
                {{"scheme", "none \"quoted\""}});
    tr.instant("alert", "detect", common::SimTime{3'500});

    const std::string path = temp_path("trace.json");
    ASSERT_TRUE(tr.write_chrome_trace(path));
    const auto parsed = Json::parse(read_file(path));
    ASSERT_TRUE(parsed.has_value());
    const Json* events = parsed->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->size(), 2u);
    const Json& complete = events->at(0);
    EXPECT_EQ(complete.find("ph")->as_string(), "X");
    EXPECT_DOUBLE_EQ(complete.find("dur")->as_double(), 10'000.0);  // microseconds
    EXPECT_EQ(complete.find("args")->find("scheme")->as_string(), "none \"quoted\"");
    const Json& instant = events->at(1);
    EXPECT_EQ(instant.find("ph")->as_string(), "i");
    EXPECT_DOUBLE_EQ(instant.find("ts")->as_double(), 3.5);
    std::remove(path.c_str());
}

TEST(EventTracerTest, JsonlEveryLineParses) {
    telemetry::EventTracer tr;
    tr.instant("a", "c", common::SimTime{1});
    tr.complete("b", "c", common::SimTime{2}, common::Duration::nanos(5));

    const std::string path = temp_path("trace.jsonl");
    ASSERT_TRUE(tr.write_jsonl(path));
    std::ifstream in(path);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        const auto parsed = Json::parse(line);
        ASSERT_TRUE(parsed.has_value()) << line;
        EXPECT_NE(parsed->find("name"), nullptr);
        EXPECT_NE(parsed->find("ts"), nullptr);
        ++lines;
    }
    EXPECT_EQ(lines, 2u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Run artifacts from a real scenario
// ---------------------------------------------------------------------------

namespace {

core::ScenarioConfig small_config(core::AttackKind attack) {
    core::ScenarioConfig cfg;
    cfg.name = "telemetry-test";
    cfg.seed = 7;
    cfg.host_count = 4;
    cfg.addressing = core::Addressing::kStatic;
    cfg.attack = attack;
    cfg.duration = common::Duration::seconds(24);
    cfg.attack_start = common::Duration::seconds(8);
    cfg.attack_stop = common::Duration::seconds(16);
    return cfg;
}

}  // namespace

TEST(ScenarioTelemetryTest, PoisoningRunCountsCacheOverwrites) {
    core::ScenarioRunner runner(small_config(core::AttackKind::kMitm));
    detect::NullScheme scheme;
    const auto r = runner.run(scheme);
    ASSERT_TRUE(r.attack_succeeded);  // nothing deployed to stop it

    const auto& m = runner.metrics();
    EXPECT_GT(m.find_counter("arp.cache.overwrites")->value(), 0u);
    EXPECT_GT(m.find_counter("sim.net.frames")->value(), 0u);
    EXPECT_EQ(m.find_counter("sim.net.frames")->value(), r.total_frames);
    EXPECT_EQ(m.find_counter("sim.sched.events_executed")->value(), r.events_executed);
    EXPECT_GT(m.find_gauge("sim.sched.queue_depth")->high_water(), 0);
    EXPECT_GT(m.find_counter("l2.switch.frames_received")->value(), 0u);
    EXPECT_GT(m.find_counter("l2.cam.inserts")->value(), 0u);
}

TEST(ScenarioTelemetryTest, CleanRunHasNoCacheOverwrites) {
    core::ScenarioRunner runner(small_config(core::AttackKind::kNone));
    detect::NullScheme scheme;
    const auto r = runner.run(scheme);
    EXPECT_FALSE(r.attack_succeeded);
    EXPECT_EQ(runner.metrics().find_counter("arp.cache.overwrites")->value(), 0u);
    EXPECT_EQ(runner.metrics().find_counter("detect.alerts.total")->value(), 0u);
}

TEST(ScenarioTelemetryTest, RunArtifactAndTraceParseBackWithExpectedSchema) {
    telemetry::EventTracer tracer;
    core::ScenarioRunner runner(small_config(core::AttackKind::kMitm));
    runner.set_tracer(&tracer);
    detect::NullScheme scheme;
    const auto result = runner.run(scheme);

    // Write both artifacts exactly the way the CLI does.
    const std::string metrics_path = temp_path("run_artifact.json");
    const std::string trace_path = temp_path("run_trace.json");
    telemetry::RunArtifact artifact("telemetry_test");
    artifact.add_run(core::run_json(result, &runner.metrics()));
    ASSERT_TRUE(artifact.write(metrics_path));
    ASSERT_TRUE(tracer.write_chrome_trace(trace_path));

    // ---- run artifact schema ----
    const auto doc = Json::parse(read_file(metrics_path));
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("schema")->as_string(), telemetry::RunArtifact::kSchema);
    const Json* runs = doc->find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->size(), 1u);
    const Json& run = runs->at(0);

    const Json* config = run.find("config");
    ASSERT_NE(config, nullptr);
    EXPECT_EQ(config->find("seed")->as_int(), 7);
    EXPECT_EQ(config->find("attack")->as_string(), "mitm");
    EXPECT_EQ(config->find("host_count")->as_int(), 4);

    const Json* res = run.find("result");
    ASSERT_NE(res, nullptr);
    EXPECT_TRUE(res->find("attack_succeeded")->as_bool());
    EXPECT_NE(res->find("windows")->find("attack"), nullptr);
    EXPECT_GT(res->find("overhead")->find("total_frames")->as_int(), 0);

    const Json* counters = run.find("metrics")->find("counters");
    ASSERT_NE(counters, nullptr);
    // At least one counter from every instrumented layer.
    for (const char* key : {"sim.net.frames", "sim.sched.events_executed",
                            "l2.switch.frames_received", "arp.cache.overwrites",
                            "detect.alerts.total"}) {
        ASSERT_NE(counters->find(key), nullptr) << key;
    }
    EXPECT_GT(counters->find("arp.cache.overwrites")->as_int(), 0);
    const Json* hist = run.find("metrics")->find("histograms")->find("arp.resolution_latency_us");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->find("bucket_counts")->size(), hist->find("bounds")->size() + 1);

    // ---- chrome trace ----
    const auto trace = Json::parse(read_file(trace_path));
    ASSERT_TRUE(trace.has_value());
    const Json* events = trace->find("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_GE(events->size(), 4u);  // windows + attack markers at minimum
    bool saw_attack_window = false;
    for (const Json& e : events->as_array()) {
        ASSERT_NE(e.find("name"), nullptr);
        ASSERT_NE(e.find("ph"), nullptr);
        ASSERT_NE(e.find("ts"), nullptr);
        if (e.find("name")->as_string() == "attack-window") saw_attack_window = true;
    }
    EXPECT_TRUE(saw_attack_window);

    std::remove(metrics_path.c_str());
    std::remove(trace_path.c_str());
}

TEST(RunArtifactTest, MetaAndMultipleRuns) {
    telemetry::RunArtifact artifact("sweep");
    artifact.set_meta("axis", "lease_seconds");
    Json run1 = Json::object();
    run1["x"] = 1;
    Json run2 = Json::object();
    run2["x"] = 2;
    artifact.add_run(std::move(run1));
    artifact.add_run(std::move(run2));
    EXPECT_EQ(artifact.run_count(), 2u);
    const auto parsed = Json::parse(artifact.to_json().dump(2));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("meta")->find("axis")->as_string(), "lease_seconds");
    EXPECT_EQ(parsed->find("runs")->at(1).find("x")->as_int(), 2);
}

#include "lint/linter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lint/baseline.hpp"
#include "lint/index.hpp"
#include "lint/lexer.hpp"
#include "lint/sarif.hpp"
#include "telemetry/json.hpp"

namespace arpsec::lint {
namespace {

std::vector<Violation> run(std::string_view path, std::string_view text) {
    return Linter{}.lint_source(path, text);
}

bool has_rule(const std::vector<Violation>& vs, std::string_view rule) {
    for (const auto& v : vs) {
        if (v.rule == rule) return true;
    }
    return false;
}

// ---------------------------------------------------------------------------
// sim-determinism
// ---------------------------------------------------------------------------

TEST(LintDeterminismTest, FlagsWallClockOutsideCommonTime) {
    const auto vs = run("src/sim/bad.cpp",
                        "auto now = std::chrono::system_clock::now();\n");
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].rule, "sim-determinism");
    EXPECT_EQ(vs[0].line, 1u);
    EXPECT_EQ(vs[0].file, "src/sim/bad.cpp");
}

TEST(LintDeterminismTest, FlagsGlobalPrng) {
    EXPECT_TRUE(has_rule(run("src/detect/bad.cpp", "int x = std::rand();\n"),
                         "sim-determinism"));
    EXPECT_TRUE(has_rule(run("src/host/bad.cpp", "std::mt19937 gen{42};\n"),
                         "sim-determinism"));
}

TEST(LintDeterminismTest, AllowsCommonTimeItself) {
    EXPECT_TRUE(run("src/common/time.cpp",
                    "auto t = std::chrono::steady_clock::now();\n")
                    .empty());
}

TEST(LintDeterminismTest, IgnoresCommentsAndStrings) {
    EXPECT_TRUE(run("src/sim/ok.cpp",
                    "// system_clock is banned here\n"
                    "const char* msg = \"uses system_clock\";\n")
                    .empty());
}

TEST(LintDeterminismTest, TokenBoundariesRespected) {
    // "strand" contains "rand" but is not the banned token.
    EXPECT_TRUE(run("src/sim/ok.cpp", "int strand = 3; use(strand);\n").empty());
}

// ---------------------------------------------------------------------------
// no-threads-in-sim
// ---------------------------------------------------------------------------

TEST(LintNoThreadsTest, FlagsThreadHeadersOutsideExp) {
    const auto vs = run("src/sim/bad.cpp", "#include <thread>\n");
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].rule, "no-threads-in-sim");
    EXPECT_EQ(vs[0].line, 1u);
    EXPECT_TRUE(has_rule(run("src/detect/bad.cpp", "#include <mutex>\n"),
                         "no-threads-in-sim"));
    EXPECT_TRUE(has_rule(run("bench/bad.cpp", "#include <future>\n"),
                         "no-threads-in-sim"));
    // Replay reaches threads only through exp::map_indexed.
    EXPECT_TRUE(has_rule(run("src/replay/x.cpp", "#include <thread>\n"),
                         "no-threads-in-sim"));
}

TEST(LintNoThreadsTest, FlagsConcurrencySpellings) {
    EXPECT_TRUE(has_rule(run("src/host/bad.cpp", "std::thread t{work};\n"),
                         "no-threads-in-sim"));
    EXPECT_TRUE(has_rule(run("tools/bad.cpp", "auto f = std::async(work);\n"),
                         "no-threads-in-sim"));
    EXPECT_TRUE(has_rule(run("src/core/bad.cpp", "std::mutex m;\n"),
                         "no-threads-in-sim"));
}

TEST(LintNoThreadsTest, AllowsSweepExecutorAndLogger) {
    EXPECT_TRUE(run("src/exp/executor.cpp",
                    "#include <thread>\n"
                    "std::thread t{work};\n")
                    .empty());
    EXPECT_TRUE(run("src/common/log.cpp",
                    "#include <mutex>\n"
                    "std::mutex m;\n")
                    .empty());
}

TEST(LintNoThreadsTest, AllowsRing) {
    // The SPSC ring is atomics-only but lives on the exemption list so its
    // documentation and future lock-free additions don't trip token scans.
    EXPECT_TRUE(run("src/common/ring.hpp",
                    "#pragma once\n"
                    "#include <atomic>\n"
                    "#include <condition_variable>\n")
                    .empty());
}

TEST(LintNoThreadsTest, RingExemptionDoesNotLeakToNeighbors) {
    // Only the named common files are exempt: sim stays flagged, and so
    // does a hypothetical common/ring_utils.cpp that does not match the
    // common/ring.* path pin.
    EXPECT_TRUE(has_rule(run("src/sim/bad.cpp", "std::thread t{work};\n"),
                         "no-threads-in-sim"));
    EXPECT_TRUE(has_rule(run("src/common/buffer.cpp", "#include <thread>\n"),
                         "no-threads-in-sim"));
}

TEST(LintNoThreadsTest, IgnoresProseAndLookalikes) {
    EXPECT_TRUE(run("src/sim/ok.cpp",
                    "// a mutex would deadlock here; threads are banned\n"
                    "int single_threaded = 1;\n"
                    "#include <cstdio>\n")
                    .empty());
}

TEST(LintNoThreadsTest, AllowsServeWorkers) {
    // The serving intake thread and shard workers are a sanctioned
    // concurrency site, like the sweep executor.
    EXPECT_TRUE(run("src/serve/shard.cpp",
                    "#include <thread>\n"
                    "#include <atomic>\n"
                    "std::thread t{work};\n")
                    .empty());
}

// ---------------------------------------------------------------------------
// no-sockets-outside-serve
// ---------------------------------------------------------------------------

TEST(LintNoSocketsTest, FlagsSocketHeadersOutsideServe) {
    const auto vs = run("src/sim/bad.cpp", "#include <sys/socket.h>\n");
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].rule, "no-sockets-outside-serve");
    EXPECT_EQ(vs[0].line, 1u);
    EXPECT_TRUE(has_rule(run("src/wire/bad.cpp", "#include <netinet/in.h>\n"),
                         "no-sockets-outside-serve"));
    EXPECT_TRUE(has_rule(run("src/replay/bad.cpp", "#include <arpa/inet.h>\n"),
                         "no-sockets-outside-serve"));
    EXPECT_TRUE(has_rule(run("src/detect/bad.cpp", "#include <netdb.h>\n"),
                         "no-sockets-outside-serve"));
}

TEST(LintNoSocketsTest, AllowsServeTransport) {
    EXPECT_TRUE(run("src/serve/transport.cpp",
                    "#include <sys/socket.h>\n"
                    "#include <sys/un.h>\n"
                    "#include <netinet/in.h>\n"
                    "#include <netinet/tcp.h>\n"
                    "#include <arpa/inet.h>\n")
                    .empty());
}

TEST(LintNoSocketsTest, IgnoresProse) {
    EXPECT_TRUE(run("src/sim/ok.cpp",
                    "// real traffic goes through <sys/socket.h> in serve/\n"
                    "int x = 1;\n")
                    .empty());
}

TEST(LintLayeringTest, ServeMayIncludeReplayButNotViceVersa) {
    // serve sits at the top of the stack: it may pull in replay sessions,
    // but nothing below may reach back up into serve/.
    EXPECT_TRUE(run("src/serve/server.cpp",
                    "#include \"replay/session.hpp\"\n"
                    "#include \"detect/registry.hpp\"\n")
                    .empty());
    EXPECT_TRUE(has_rule(run("src/replay/engine.cpp",
                             "#include \"serve/server.hpp\"\n"),
                         "include-layering"));
    EXPECT_TRUE(has_rule(run("src/sim/net.cpp",
                             "#include \"serve/transport.hpp\"\n"),
                         "include-layering"));
}

// ---------------------------------------------------------------------------
// naked-new
// ---------------------------------------------------------------------------

TEST(LintNakedNewTest, FlagsNewAndMalloc) {
    EXPECT_TRUE(has_rule(run("src/l2/bad.cpp", "auto* s = new Switch{};\n"),
                         "naked-new"));
    EXPECT_TRUE(has_rule(run("src/l2/bad.cpp", "void* p = malloc(64);\n"),
                         "naked-new"));
}

TEST(LintNakedNewTest, IgnoresProseAndIdentifiers) {
    EXPECT_TRUE(run("src/arp/ok.cpp",
                    "// a new entry was created\n"
                    "int new_count = renew(news);\n")
                    .empty());
}

// ---------------------------------------------------------------------------
// assert-in-parser
// ---------------------------------------------------------------------------

TEST(LintAssertInParserTest, FlagsAssertOnlyInWire) {
    const auto vs = run("src/wire/bad_parser.cpp", "    assert(len >= 4);\n");
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].rule, "assert-in-parser");
    // The same line outside src/wire/ is fine (Expected itself asserts).
    EXPECT_TRUE(run("src/common/expected_like.cpp", "assert(len >= 4);\n").empty());
}

TEST(LintAssertInParserTest, StaticAssertIsFine) {
    EXPECT_TRUE(run("src/wire/ok.cpp", "static_assert(kSize == 28);\n").empty());
}

// ---------------------------------------------------------------------------
// pragma-once
// ---------------------------------------------------------------------------

TEST(LintPragmaOnceTest, FlagsMissingGuard) {
    const auto vs = run("src/arp/naked.hpp", "struct S {};\n");
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].rule, "pragma-once");
    EXPECT_EQ(vs[0].line, 1u);
}

TEST(LintPragmaOnceTest, GuardedHeaderAndSourcesPass) {
    EXPECT_TRUE(run("src/arp/ok.hpp", "#pragma once\nstruct S {};\n").empty());
    EXPECT_TRUE(run("src/arp/ok.cpp", "struct S {};\n").empty());
}

// ---------------------------------------------------------------------------
// include-layering
// ---------------------------------------------------------------------------

TEST(LintLayeringTest, FlagsUpwardInclude) {
    const auto vs =
        run("src/common/bad.hpp", "#pragma once\n#include \"sim/node.hpp\"\n");
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].rule, "include-layering");
    EXPECT_EQ(vs[0].line, 2u);
}

TEST(LintLayeringTest, TelemetryDependsOnlyOnCommon) {
    EXPECT_TRUE(has_rule(run("src/telemetry/bad.cpp",
                             "#include \"wire/ethernet.hpp\"\n"),
                         "include-layering"));
    EXPECT_TRUE(run("src/telemetry/ok.cpp",
                    "#include \"common/time.hpp\"\n"
                    "#include \"telemetry/json.hpp\"\n")
                    .empty());
}

TEST(LintLayeringTest, CheckMayDriveSimDetectAndExp) {
    // The DST checker sits above the stack: fan-out via exp, scheme
    // deployment via detect, LAN construction via sim/l2/host.
    EXPECT_TRUE(run("src/check/ok.cpp",
                    "#include \"check/scenario.hpp\"\n"
                    "#include \"exp/executor.hpp\"\n"
                    "#include \"detect/registry.hpp\"\n"
                    "#include \"sim/network.hpp\"\n"
                    "#include \"host/host.hpp\"\n"
                    "#include \"l2/switch.hpp\"\n")
                    .empty());
    // ...but not core: the checker builds its own harness.
    EXPECT_TRUE(has_rule(run("src/check/bad.cpp", "#include \"core/runner.hpp\"\n"),
                         "include-layering"));
}

TEST(LintLayeringTest, ReplaySitsBesideCheckAtTheTop) {
    // The replay engine may drive the whole stack below it...
    EXPECT_TRUE(run("src/replay/ok.cpp",
                    "#include \"replay/engine.hpp\"\n"
                    "#include \"check/scenario_gen.hpp\"\n"
                    "#include \"exp/executor.hpp\"\n"
                    "#include \"detect/registry.hpp\"\n"
                    "#include \"sim/network.hpp\"\n"
                    "#include \"wire/pcap_reader.hpp\"\n"
                    "#include \"telemetry/json.hpp\"\n"
                    "#include \"common/expected.hpp\"\n")
                    .empty());
    // ...but, like check, not core.
    EXPECT_TRUE(has_rule(run("src/replay/bad.cpp", "#include \"core/runner.hpp\"\n"),
                         "include-layering"));
}

TEST(LintLayeringTest, NothingDependsBackOnReplay) {
    for (const char* path : {"src/sim/bad.cpp", "src/detect/bad.cpp", "src/exp/bad.cpp",
                             "src/wire/bad.cpp", "src/check/bad.cpp"}) {
        EXPECT_TRUE(has_rule(run(path, "#include \"replay/trace.hpp\"\n"),
                             "include-layering"))
            << path;
    }
}

TEST(LintLayeringTest, NothingDependsBackOnCheck) {
    // No production module may include the checker — it is a leaf consumer,
    // so a sim/detect/exp refactor can never be blocked by test machinery.
    for (const char* path : {"src/sim/bad.cpp", "src/detect/bad.cpp", "src/exp/bad.cpp",
                             "src/core/bad.cpp", "src/host/bad.cpp"}) {
        EXPECT_TRUE(has_rule(run(path, "#include \"check/oracle.hpp\"\n"),
                             "include-layering"))
            << path;
    }
}

TEST(LintLayeringTest, DownwardAndExternalIncludesPass) {
    EXPECT_TRUE(run("src/l2/ok.cpp",
                    "#include \"sim/network.hpp\"\n"
                    "#include <vector>\n")
                    .empty());
    // tests/ may include anything.
    EXPECT_TRUE(run("tests/ok.cpp", "#include \"core/runner.hpp\"\n").empty());
}

// ---------------------------------------------------------------------------
// lint:allow escape hatch
// ---------------------------------------------------------------------------

TEST(LintAllowTest, SameLineMarkerSuppresses) {
    EXPECT_TRUE(run("src/sim/ok.cpp",
                    "auto t = std::chrono::system_clock::now();  "
                    "// lint:allow(sim-determinism)\n")
                    .empty());
}

TEST(LintAllowTest, PreviousLineMarkerSuppresses) {
    EXPECT_TRUE(run("src/l2/ok.cpp",
                    "// lint:allow(naked-new): arena owns this\n"
                    "auto* s = new Switch{};\n")
                    .empty());
}

TEST(LintAllowTest, WrongRuleIdDoesNotSuppress) {
    EXPECT_TRUE(has_rule(run("src/l2/bad.cpp",
                             "auto* s = new Switch{};  // lint:allow(pragma-once)\n"),
                         "naked-new"));
}

// ---------------------------------------------------------------------------
// no-frame-copy
// ---------------------------------------------------------------------------

TEST(LintNoFrameCopyTest, FlagsEthernetFrameParseOutsideWire) {
    EXPECT_TRUE(has_rule(run("src/host/bad.cpp",
                             "void f(std::span<const std::uint8_t> raw) {\n"
                             "  auto frame = wire::EthernetFrame::parse(raw);\n"
                             "}\n"),
                         "no-frame-copy"));
}

TEST(LintNoFrameCopyTest, FlagsSerializeOnFrameLocal) {
    EXPECT_TRUE(has_rule(run("src/detect/bad.cpp",
                             "void f() {\n"
                             "  wire::EthernetFrame out;\n"
                             "  auto raw = out.serialize();\n"
                             "}\n"),
                         "no-frame-copy"));
}

TEST(LintNoFrameCopyTest, FlagsSerializeOnFrameParameter) {
    EXPECT_TRUE(has_rule(run("src/l2/bad.cpp",
                             "void relay(const wire::EthernetFrame& frame) {\n"
                             "  sink(frame.serialize());\n"
                             "}\n"),
                         "no-frame-copy"));
}

TEST(LintNoFrameCopyTest, FlagsSerializingAViewsMaterializedFrame) {
    EXPECT_TRUE(has_rule(run("src/attack/bad.cpp",
                             "void f(const wire::FrameView& view) {\n"
                             "  auto raw = view.frame().serialize();\n"
                             "}\n"),
                         "no-frame-copy"));
}

TEST(LintNoFrameCopyTest, WireModuleOwnsTheCodec) {
    EXPECT_TRUE(run("src/wire/frame.cpp",
                    "void f(std::span<const std::uint8_t> raw) {\n"
                    "  require(raw.size() >= 14);\n"
                    "  auto frame = EthernetFrame::parse(raw);\n"
                    "}\n")
                    .empty());
}

TEST(LintNoFrameCopyTest, PayloadSerializationIsNotAFrameCopy) {
    EXPECT_TRUE(run("src/host/ok.cpp",
                    "void f() {\n"
                    "  wire::ArpPacket pkt;\n"
                    "  wire::EthernetFrame frame;\n"
                    "  frame.payload = pkt.serialize();\n"
                    "}\n")
                    .empty());
}

TEST(LintNoFrameCopyTest, AllowMarkerSuppresses) {
    EXPECT_TRUE(run("src/host/ok.cpp",
                    "void f(const wire::EthernetFrame& frame) {\n"
                    "  // lint:allow(no-frame-copy): golden bytes for the codec bench\n"
                    "  sink(frame.serialize());\n"
                    "}\n")
                    .empty());
}

// ---------------------------------------------------------------------------
// clean file, catalog, report shape
// ---------------------------------------------------------------------------

TEST(LintReportTest, CleanFileProducesNoViolations) {
    EXPECT_TRUE(run("src/arp/clean.cpp",
                    "#include \"arp/cache.hpp\"\n"
                    "\n"
                    "namespace arpsec::arp {\n"
                    "int answer() { return 42; }\n"
                    "}  // namespace arpsec::arp\n")
                    .empty());
}

TEST(LintReportTest, CatalogCoversEveryEmittedRule) {
    const auto& catalog = rule_catalog();
    EXPECT_EQ(catalog.size(), 10u);
    // Two deliberately terrible fixtures: one in src/wire/ (where the parser
    // and bounds rules apply) and one in src/host/ (where the frame-copy rule
    // applies). Together they trip every rule in the catalog.
    std::vector<Violation> vs;
    auto add = [&](std::string_view path, std::string_view text) {
        const auto found = run(path, text);
        vs.insert(vs.end(), found.begin(), found.end());
    };
    add("src/wire/bad.hpp",
        "#include \"core/runner.hpp\"\n"
        "#include <thread>\n"
        "#include <sys/socket.h>\n"
        "auto t = std::chrono::system_clock::now();\n"
        "auto* p = new int;\n"
        "assert(true);\n"
        "core::Runner r;\n"
        "std::uint8_t f(std::span<const std::uint8_t> d) { return d[0]; }\n");
    add("src/host/bad.cpp",
        "void f(const wire::EthernetFrame& frame) { sink(frame.serialize()); }\n");
    for (const auto& v : vs) {
        bool known = false;
        for (const auto& info : catalog) {
            if (info.id == v.rule) known = true;
        }
        EXPECT_TRUE(known) << "unknown rule id: " << v.rule;
    }
    // Every rule fires across the two fixtures.
    for (const auto& info : catalog) {
        EXPECT_TRUE(has_rule(vs, info.id)) << "rule did not fire: " << info.id;
    }
}

TEST(LintReportTest, JsonReportShape) {
    const auto vs = run("src/sim/bad.cpp", "int x = std::rand();\n");
    ASSERT_EQ(vs.size(), 1u);
    const telemetry::Json report = Linter::report(vs, "/repo", 151);

    // Round-trips through the telemetry JSON parser.
    const auto parsed = telemetry::Json::parse(report.dump(2));
    ASSERT_TRUE(parsed.has_value());

    EXPECT_EQ(parsed->find("schema")->as_string(), "arpsec.lint-report.v1");
    EXPECT_EQ(parsed->find("root")->as_string(), "/repo");
    EXPECT_EQ(parsed->find("files_scanned")->as_int(), 151);
    EXPECT_EQ(parsed->find("violation_count")->as_int(), 1);

    const auto* counts = parsed->find("counts");
    ASSERT_NE(counts, nullptr);
    EXPECT_EQ(counts->find("sim-determinism")->as_int(), 1);
    EXPECT_EQ(counts->find("naked-new")->as_int(), 0);

    const auto* list = parsed->find("violations");
    ASSERT_NE(list, nullptr);
    ASSERT_EQ(list->size(), 1u);
    const auto& item = list->at(0);
    EXPECT_EQ(item.find("file")->as_string(), "src/sim/bad.cpp");
    EXPECT_EQ(item.find("line")->as_int(), 1);
    EXPECT_EQ(item.find("rule")->as_string(), "sim-determinism");
    EXPECT_FALSE(item.find("message")->as_string().empty());
    EXPECT_EQ(item.find("snippet")->as_string(), "int x = std::rand();");
}

// ---------------------------------------------------------------------------
// comment/string stripping
// ---------------------------------------------------------------------------

TEST(LintStripTest, PreservesLineStructure) {
    const std::string in =
        "int a; // trailing\n"
        "/* block\n"
        "   spanning */ int b;\n"
        "const char* s = \"new malloc(1)\";\n";
    const std::string out = strip_comments_and_strings(in);
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
              std::count(in.begin(), in.end(), '\n'));
    EXPECT_EQ(out.find("trailing"), std::string::npos);
    EXPECT_EQ(out.find("spanning"), std::string::npos);
    EXPECT_EQ(out.find("malloc"), std::string::npos);
    EXPECT_NE(out.find("int a;"), std::string::npos);
    EXPECT_NE(out.find("int b;"), std::string::npos);
}

TEST(LintStripTest, HandlesEscapesAndRawStrings) {
    const std::string out = strip_comments_and_strings(
        "auto s = \"escaped \\\" quote new\";\n"
        "auto r = R\"(raw new malloc())\";\n"
        "int after = 1;\n");
    EXPECT_EQ(out.find("new"), std::string::npos);
    EXPECT_EQ(out.find("malloc"), std::string::npos);
    EXPECT_NE(out.find("int after = 1;"), std::string::npos);
}

TEST(LintStripTest, RawStringCustomDelimiter) {
    // Regression: the old stripper only understood R"( and would treat the
    // delimiter's ')' as the terminator.
    const std::string in =
        "auto r = R\"x(new malloc() )\" still raw)x\"; int alive = 1;\n";
    const std::string out = strip_comments_and_strings(in);
    EXPECT_EQ(out.find("malloc"), std::string::npos);
    EXPECT_EQ(out.find("still raw"), std::string::npos);
    EXPECT_NE(out.find("int alive = 1;"), std::string::npos);
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
              std::count(in.begin(), in.end(), '\n'));
}

TEST(LintStripTest, RawStringEncodingPrefixes) {
    // Regression: u8R/uR/LR/UR prefixes did not open a raw string before.
    for (const char* prefix : {"u8R", "uR", "LR", "UR"}) {
        const std::string in =
            std::string{"auto r = "} + prefix + "\"y(new malloc())y\"; int alive = 1;\n";
        const std::string out = strip_comments_and_strings(in);
        EXPECT_EQ(out.find("malloc"), std::string::npos) << prefix;
        EXPECT_NE(out.find("int alive = 1;"), std::string::npos) << prefix;
    }
}

TEST(LintStripTest, DigitSeparatorIsNotACharLiteral) {
    // Regression: 1'000 used to open a bogus char literal and swallow the
    // rest of the line (including real code) as "literal contents".
    const std::string in = "int big = 1'000'000; auto* p = new int;\n";
    const std::string out = strip_comments_and_strings(in);
    EXPECT_NE(out.find("1'000'000"), std::string::npos);
    EXPECT_NE(out.find("new"), std::string::npos);  // still visible to rules
    EXPECT_TRUE(has_rule(run("src/arp/sep.cpp", in), "naked-new"));
}

TEST(LintStripTest, CharLiteralsStillBlank) {
    const std::string out =
        strip_comments_and_strings("char c = 'n'; char q = '\\''; int k = 1;\n");
    EXPECT_EQ(out.find("'n'"), std::string::npos);
    EXPECT_NE(out.find("int k = 1;"), std::string::npos);
}

// ---------------------------------------------------------------------------
// lexer: golden token streams per token class
// ---------------------------------------------------------------------------

std::vector<TokenKind> kinds_of(std::string_view text) {
    std::vector<TokenKind> out;
    for (const Token& t : lex(text)) out.push_back(t.kind);
    return out;
}

std::vector<std::string> texts_of(std::string_view text) {
    std::vector<std::string> out;
    for (const Token& t : lex(text)) out.emplace_back(t.text);
    return out;
}

TEST(LexTest, IdentifiersAndKeywords) {
    const auto toks = texts_of("int _x y2 return");
    EXPECT_EQ(toks, (std::vector<std::string>{"int", "_x", "y2", "return"}));
    for (const auto k : kinds_of("int _x y2 return")) {
        EXPECT_EQ(k, TokenKind::kIdentifier);
    }
}

TEST(LexTest, NumbersIncludingSeparatorsAndExponents) {
    const auto toks = lex("1'000 0xFF'AAu 3.14e-2 .5f 0b1010");
    ASSERT_EQ(toks.size(), 5u);
    const std::vector<std::string> want = {"1'000", "0xFF'AAu", "3.14e-2", ".5f", "0b1010"};
    for (std::size_t i = 0; i < toks.size(); ++i) {
        EXPECT_EQ(toks[i].kind, TokenKind::kNumber) << i;
        EXPECT_EQ(std::string{toks[i].text}, want[i]) << i;
    }
}

TEST(LexTest, StringLiteralsWithEscapes) {
    const auto toks = lex("auto s = \"a\\\"b\";");
    ASSERT_EQ(toks.size(), 5u);
    EXPECT_EQ(toks[3].kind, TokenKind::kString);
    EXPECT_EQ(std::string{toks[3].text}, "\"a\\\"b\"");
}

TEST(LexTest, RawStringsWithCustomDelimiter) {
    const auto toks = lex("auto r = u8R\"x(quote \" close) x)x\"; int z;");
    bool saw_raw = false;
    for (const Token& t : toks) {
        if (t.kind == TokenKind::kRawString) {
            saw_raw = true;
            EXPECT_EQ(std::string{t.text}, "u8R\"x(quote \" close) x)x\"");
        }
    }
    EXPECT_TRUE(saw_raw);
    EXPECT_EQ(std::string{toks.back().text}, ";");
}

TEST(LexTest, CharLiterals) {
    const auto toks = lex("char c = '\\n';");
    ASSERT_EQ(toks.size(), 5u);
    EXPECT_EQ(toks[3].kind, TokenKind::kCharLiteral);
    EXPECT_EQ(std::string{toks[3].text}, "'\\n'");
}

TEST(LexTest, PunctuationMaximalMunch) {
    const auto toks = texts_of("a::b->c; x <<= 1; p ->* q; v != w;");
    EXPECT_NE(std::find(toks.begin(), toks.end(), "::"), toks.end());
    EXPECT_NE(std::find(toks.begin(), toks.end(), "->"), toks.end());
    EXPECT_NE(std::find(toks.begin(), toks.end(), "<<="), toks.end());
    EXPECT_NE(std::find(toks.begin(), toks.end(), "->*"), toks.end());
    EXPECT_NE(std::find(toks.begin(), toks.end(), "!="), toks.end());
    // '::' must never split into ':' ':' — qualified-name analysis depends
    // on it.
    EXPECT_EQ(std::find(toks.begin(), toks.end(), ":"), toks.end());
}

TEST(LexTest, PreprocessorDirectives) {
    const auto toks = lex("#include <thread>\n#  define X 1\nint y;\n");
    ASSERT_GE(toks.size(), 2u);
    EXPECT_EQ(toks[0].kind, TokenKind::kPreprocessor);
    EXPECT_EQ(std::string{toks[0].text}, "#include");
    bool saw_define = false;
    for (const Token& t : toks) {
        if (t.kind == TokenKind::kPreprocessor && t.text.find("define") != std::string_view::npos) {
            saw_define = true;
        }
    }
    EXPECT_TRUE(saw_define);
    // A comment counts as whitespace, so a directive may follow one.
    EXPECT_EQ(lex("/* note */ #include <x>\n")[0].kind, TokenKind::kPreprocessor);
}

TEST(LexTest, CommentsYieldNoTokens) {
    const std::string text = "int a; // note: b\n/* block\n   spans */ int b; /**/c";
    const auto toks = lex(text);
    EXPECT_EQ(texts_of(text), (std::vector<std::string>{"int", "a", ";", "int", "b", ";", "c"}));
    for (const Token& t : toks) {
        EXPECT_EQ(text.substr(t.offset, t.text.size()), t.text);
    }
    EXPECT_EQ(toks[3].line, 3u);  // the int after the block comment
    EXPECT_EQ(toks[3].col, 13u);
    EXPECT_EQ(toks[6].line, 3u);  // c, glued to an empty comment
    EXPECT_EQ(toks[6].col, 24u);
}

TEST(LexTest, SpansAreAccurate) {
    const std::string text = "int a;\n  foo(bar);\n";
    for (const Token& t : lex(text)) {
        ASSERT_LE(t.offset + t.text.size(), text.size());
        EXPECT_EQ(text.substr(t.offset, t.text.size()), t.text);
        EXPECT_GE(t.line, 1u);
        EXPECT_GE(t.col, 1u);
    }
    const auto toks = lex(text);
    EXPECT_EQ(toks[3].line, 2u);  // foo
    EXPECT_EQ(toks[3].col, 3u);
}

// ---------------------------------------------------------------------------
// per-TU index
// ---------------------------------------------------------------------------

TEST(LintIndexTest, FindsFunctionsAndParameters) {
    const TuIndex idx = build_index(
        "class S {\n"
        "    static int count_;\n"
        "};\n"
        "std::uint8_t S::first(std::span<const std::uint8_t> data) {\n"
        "    return data.size() != 0U ? data[0] : 0U;\n"
        "}\n");
    ASSERT_EQ(idx.functions.size(), 1u);
    EXPECT_EQ(idx.functions[0].name, "first");
    ASSERT_EQ(idx.functions[0].params.size(), 1u);
    EXPECT_EQ(idx.functions[0].params[0].name, "data");
    EXPECT_EQ(idx.functions[0].params[0].type, "std :: span < const std :: uint8_t >");
}

// ---------------------------------------------------------------------------
// untrusted-read-bounds
// ---------------------------------------------------------------------------

TEST(LintBoundsTest, FlagsUncheckedIndexedRead) {
    const auto vs = run("src/wire/bad.cpp",
                        "std::uint8_t first(std::span<const std::uint8_t> data) {\n"
                        "    return data[0];\n"
                        "}\n");
    ASSERT_TRUE(has_rule(vs, "untrusted-read-bounds"));
    EXPECT_EQ(vs[0].line, 2u);
}

TEST(LintBoundsTest, FlagsFunctionTemplatesUnderEitherSpelling) {
    // `class` in a template parameter list is a type parameter, not a class
    // head: the function template after it must be indexed all the same.
    for (const std::string head :
         {"template <typename T>\n", "template <class T>\n", "template <class K, class V>\n"}) {
        SCOPED_TRACE(head);
        const auto vs = run("src/wire/bad.cpp",
                            head + "std::uint8_t first(std::span<const std::uint8_t> data) {\n"
                                   "    return data[0];\n"
                                   "}\n");
        ASSERT_TRUE(has_rule(vs, "untrusted-read-bounds"));
        EXPECT_EQ(vs[0].line, 3u);
    }
}

TEST(LintBoundsTest, SizeCheckDominates) {
    EXPECT_TRUE(run("src/wire/ok.cpp",
                    "std::uint8_t first(std::span<const std::uint8_t> data) {\n"
                    "    if (data.size() < 1U) return 0U;\n"
                    "    return data[0];\n"
                    "}\n")
                    .empty());
}

TEST(LintBoundsTest, RequireCountsAsCheck) {
    EXPECT_TRUE(run("src/wire/ok.cpp",
                    "std::uint8_t next() {\n"
                    "    if (!require(1)) return 0U;\n"
                    "    return data_[pos_++];\n"
                    "}\n"
                    "class R { std::span<const std::uint8_t> data_; };\n")
                    .empty());
}

TEST(LintBoundsTest, MultiByteAccessorsFlagged) {
    EXPECT_TRUE(has_rule(run("src/wire/bad.cpp",
                             "std::uint8_t head(std::span<const std::uint8_t> data) {\n"
                             "    return *data.data();\n"
                             "}\n"),
                         "untrusted-read-bounds"));
}

TEST(LintBoundsTest, OnlyEnforcedInWire) {
    EXPECT_TRUE(run("src/host/ok.cpp",
                    "std::uint8_t first(std::span<const std::uint8_t> data) {\n"
                    "    return data[0];\n"
                    "}\n")
                    .empty());
}

TEST(LintBoundsTest, AllowMarkerSuppresses) {
    EXPECT_TRUE(run("src/wire/ok.cpp",
                    "std::uint8_t first(std::span<const std::uint8_t> data) {\n"
                    "    // lint:allow(untrusted-read-bounds): caller bounds it\n"
                    "    return data[0];\n"
                    "}\n")
                    .empty());
}

// ---------------------------------------------------------------------------
// symbol-layering
// ---------------------------------------------------------------------------

TEST(LintSymbolLayeringTest, FlagsUpwardSymbolUse) {
    const auto vs = run("src/common/bad.cpp", "int n = sim::Network::node_count();\n");
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].rule, "symbol-layering");
    EXPECT_NE(vs[0].message.find("sim::Network"), std::string::npos);
}

TEST(LintSymbolLayeringTest, SelfAndAllowedModulesPass) {
    EXPECT_TRUE(run("src/sim/ok.cpp",
                    "int n = sim::Network::node_count();\n"
                    "auto m = wire::MacAddress{};\n")
                    .empty());
}

TEST(LintSymbolLayeringTest, ForeignNamespacesIgnored) {
    EXPECT_TRUE(run("src/common/ok.cpp",
                    "std::vector<int> v;\n"
                    "foo::Bar b;\n"
                    "int k = arpsec::common::answer();\n")
                    .empty());
}

// ---------------------------------------------------------------------------
// autofixes
// ---------------------------------------------------------------------------

TEST(LintFixTest, PragmaOnceAutofix) {
    const std::string text = "struct S {};\n";
    const auto vs = run("src/arp/naked.hpp", text);
    ASSERT_EQ(vs.size(), 1u);
    ASSERT_EQ(vs[0].fix_line, 1u);
    const std::string fixed = Linter::apply_fixes(text, vs);
    EXPECT_EQ(fixed.rfind("#pragma once\n", 0), 0u);
    EXPECT_TRUE(run("src/arp/naked.hpp", fixed).empty());
}

TEST(LintFixTest, FixesApplyBottomUpAcrossOneFile) {
    // Two insertions into one file, listed top-down: each must land in front
    // of its own line of the original text.
    const std::string text = "one\ntwo\nthree\n";
    Violation top{"src/arp/x.hpp", 1, "pragma-once", "", ""};
    top.fix_line = 1;
    top.fix_insert = "A\n";
    Violation bottom{"src/arp/x.hpp", 3, "pragma-once", "", ""};
    bottom.fix_line = 3;
    bottom.fix_insert = "B\n";
    EXPECT_EQ(Linter::apply_fixes(text, {top, bottom}), "A\none\ntwo\nB\nthree\n");
}

// ---------------------------------------------------------------------------
// SARIF export
// ---------------------------------------------------------------------------

TEST(SarifTest, ShapeMatchesSarif210) {
    const auto vs = run("src/sim/bad.cpp", "int x = std::rand();\n");
    ASSERT_EQ(vs.size(), 1u);
    const auto parsed = telemetry::Json::parse(sarif_report(vs).dump(2));
    ASSERT_TRUE(parsed.has_value());

    EXPECT_EQ(parsed->find("version")->as_string(), "2.1.0");
    EXPECT_NE(parsed->find("$schema")->as_string().find("sarif-2.1.0"), std::string::npos);

    const auto* runs = parsed->find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->size(), 1u);
    const auto& run0 = runs->at(0);

    const auto* driver = run0.find("tool")->find("driver");
    ASSERT_NE(driver, nullptr);
    EXPECT_EQ(driver->find("name")->as_string(), "arpsec-lint");
    EXPECT_EQ(driver->find("rules")->size(), rule_catalog().size());
    EXPECT_FALSE(driver->find("rules")->at(0).find("id")->as_string().empty());

    const auto* results = run0.find("results");
    ASSERT_NE(results, nullptr);
    ASSERT_EQ(results->size(), 1u);
    const auto& res = results->at(0);
    EXPECT_EQ(res.find("ruleId")->as_string(), "sim-determinism");
    EXPECT_EQ(res.find("level")->as_string(), "error");
    EXPECT_FALSE(res.find("message")->find("text")->as_string().empty());
    const auto& loc = res.find("locations")->at(0);
    const auto* phys = loc.find("physicalLocation");
    ASSERT_NE(phys, nullptr);
    EXPECT_EQ(phys->find("artifactLocation")->find("uri")->as_string(), "src/sim/bad.cpp");
    EXPECT_EQ(phys->find("region")->find("startLine")->as_int(), 1);
}

TEST(SarifTest, EmptyResultsStillWellFormed) {
    const auto parsed = telemetry::Json::parse(sarif_report({}).dump());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("runs")->at(0).find("results")->size(), 0u);
}

// ---------------------------------------------------------------------------
// baseline gating
// ---------------------------------------------------------------------------

TEST(BaselineTest, RoundTripAndFiltering) {
    const auto old_vs = run("src/sim/bad.cpp", "int x = std::rand();\n");
    ASSERT_EQ(old_vs.size(), 1u);
    const auto snapshot = Baseline::from_violations(old_vs);
    EXPECT_EQ(snapshot.size(), 1u);

    // Round-trips through its JSON form.
    const auto reloaded = Baseline::parse(snapshot.to_json().dump(2));
    ASSERT_TRUE(reloaded.ok());
    EXPECT_TRUE(reloaded->contains(old_vs[0]));

    // Known findings are filtered; new ones survive.
    auto new_vs = run("src/sim/bad.cpp",
                      "int x = std::rand();\n"
                      "auto* p = new int;\n");
    ASSERT_EQ(new_vs.size(), 2u);
    const auto fresh = reloaded->filter_new(new_vs);
    ASSERT_EQ(fresh.size(), 1u);
    EXPECT_EQ(fresh[0].rule, "naked-new");
}

TEST(BaselineTest, KeyedOnSnippetNotLine) {
    auto vs = run("src/sim/bad.cpp", "int x = std::rand();\n");
    ASSERT_EQ(vs.size(), 1u);
    const auto snapshot = Baseline::from_violations(vs);
    // The same finding, shifted three lines down, is still baselined.
    const auto shifted = run("src/sim/bad.cpp", "\n\n\nint x = std::rand();\n");
    ASSERT_EQ(shifted.size(), 1u);
    EXPECT_TRUE(snapshot.contains(shifted[0]));
}

TEST(BaselineTest, RejectsWrongSchemaAndShape) {
    EXPECT_FALSE(Baseline::parse("{\"schema\":\"something.else\",\"entries\":[]}").ok());
    EXPECT_FALSE(Baseline::parse("[1,2,3]").ok());
    EXPECT_FALSE(Baseline::parse("not json").ok());
    EXPECT_FALSE(
        Baseline::parse("{\"schema\":\"arpsec.lint-baseline.v1\",\"entries\":[{\"file\":1}]}")
            .ok());
    EXPECT_FALSE(Baseline::load("/nonexistent/baseline.json").ok());
}

// ---------------------------------------------------------------------------
// lint_tree: skip reporting, same findings as lint_source
// ---------------------------------------------------------------------------

class LintTreeTest : public ::testing::Test {
protected:
    void SetUp() override {
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        root_ = std::filesystem::temp_directory_path() /
                (std::string{"arpsec_lint_"} + info->name());
        std::filesystem::remove_all(root_);
        std::filesystem::create_directories(root_);
    }
    void TearDown() override { std::filesystem::remove_all(root_); }

    void write(const std::string& rel, std::string_view content) {
        const std::filesystem::path p = root_ / rel;
        std::filesystem::create_directories(p.parent_path());
        std::ofstream out{p, std::ios::binary};
        out << content;
    }

    std::filesystem::path root_;
};

TEST_F(LintTreeTest, ReportsUnreadableFilesAsSkipped) {
    write("src/arp/ok.cpp", "int x = 1;\n");
    write("src/arp/bad.cpp", "int y = 1;\n\xFF\xFE\n");
    Linter linter;
    const auto vs = linter.lint_tree(root_.string());
    EXPECT_TRUE(vs.empty());
    EXPECT_EQ(linter.files_scanned(), 1u);
    ASSERT_EQ(linter.skipped().size(), 1u);
    EXPECT_EQ(linter.skipped()[0].file, "src/arp/bad.cpp");
    EXPECT_NE(linter.skipped()[0].reason.find("UTF-8"), std::string::npos);

    // The skip surfaces in the report envelope.
    const auto report =
        Linter::report(vs, root_.string(), linter.files_scanned(), linter.skipped());
    const auto parsed = telemetry::Json::parse(report.dump(2));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("files_skipped")->as_int(), 1);
    EXPECT_EQ(parsed->find("skipped")->at(0).find("file")->as_string(), "src/arp/bad.cpp");
    EXPECT_FALSE(parsed->find("skipped")->at(0).find("reason")->as_string().empty());
}

TEST_F(LintTreeTest, SymbolLayeringMatchesLintSource) {
    // Every rule reads one file at a time, so lint_tree flags both chains,
    // the symbol sim defines and the one it does not, as lint_source does.
    const std::string bad = "void f(sim::Network& n);\nint g(sim::Unknown u);\n";
    write("src/sim/network.hpp", "#pragma once\nclass Network {};\n");
    write("src/common/bad.cpp", bad);
    Linter linter;
    const auto vs = linter.lint_tree(root_.string());
    ASSERT_EQ(vs.size(), 2u);
    EXPECT_NE(vs[0].message.find("sim::Network"), std::string::npos);
    EXPECT_NE(vs[1].message.find("sim::Unknown"), std::string::npos);
    const auto alone = run("src/common/bad.cpp", bad);
    ASSERT_EQ(alone.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(vs[i].rule, "symbol-layering");
        EXPECT_EQ(alone[i].line, vs[i].line);
        EXPECT_EQ(alone[i].message, vs[i].message);
    }
}

}  // namespace
}  // namespace arpsec::lint

// The bench JSON pipeline: util::Json round trips, and the harness's
// BENCH_<name>.json artifacts carry the documented schema — the contract of
// scripts/check_bench_regression.py.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace sharedres {
namespace {

using util::Json;

TEST(Json, RoundTripsNestedDocuments) {
  Json doc{Json::Object{}};
  doc.emplace("null", nullptr);
  doc.emplace("yes", true);
  doc.emplace("no", false);
  doc.emplace("int", 42);
  doc.emplace("neg", -17);
  doc.emplace("frac", 0.125);
  doc.emplace("tiny", 3.055e-7);
  doc.emplace("text", std::string("quote \" slash \\ tab \t newline \n"));
  Json arr{Json::Array{}};
  arr.push_back(1);
  arr.push_back("two");
  Json inner{Json::Object{}};
  inner.emplace("k", Json::Array{});
  arr.push_back(std::move(inner));
  doc.emplace("arr", std::move(arr));

  for (const int indent : {-1, 0, 2}) {
    const std::string text = doc.dump(indent);
    EXPECT_EQ(Json::parse(text), doc) << "indent=" << indent << ": " << text;
  }
}

TEST(Json, IntegralNumbersPrintWithoutFraction) {
  Json doc{Json::Object{}};
  doc.emplace("n", 12345);
  EXPECT_EQ(doc.dump(), "{\"n\":12345}");
  EXPECT_EQ(Json(0.5).dump(), "0.5");
}

// Integers share the double's slot and the tag sits in padding: exact
// integers cost the DOM no size.
static_assert(sizeof(Json) == 2 * sizeof(std::uint64_t) + sizeof(std::string) +
                                  sizeof(Json::Array) + sizeof(Json::Object));

TEST(Json, IntegersPrintExactlyBeyondTheDoubleRange) {
  const std::int64_t above = (std::int64_t{1} << 53) + 1;
  EXPECT_EQ(Json(above).dump(), "9007199254740993");
  EXPECT_EQ(Json(std::numeric_limits<std::int64_t>::min()).dump(),
            "-9223372036854775808");
  EXPECT_EQ(Json(std::numeric_limits<std::uint64_t>::max()).dump(),
            "18446744073709551615");
  EXPECT_EQ(Json(std::uint64_t{27007199254740995}).dump(),
            "27007199254740995");
  // Parsed numbers stay doubles and compare by value with built integers.
  EXPECT_EQ(Json::parse("3"), Json(3));
  EXPECT_EQ(Json::parse("3"), Json(std::uint64_t{3}));
  EXPECT_NE(Json(above), Json(above - 1));
  EXPECT_EQ(Json(above).as_double(), static_cast<double>(above));
}

TEST(Json, SharedPrimitivesMatchDump) {
  const std::string text("q\"b\\ \n\r\t\x01\x1f\x7f \xc3\xa9");
  std::string out;
  util::append_json_string(out, text);
  EXPECT_EQ(out, R"("q\"b\\ \n\r\t\u0001\u001f)" "\x7f \xc3\xa9\"");
  EXPECT_EQ(out, Json(text).dump());
  EXPECT_EQ(Json::parse(out).as_string(), text);
  out.clear();
  util::append_json_int(out, -17);
  util::append_json_int(out, std::size_t{42});
  EXPECT_EQ(out, "-1742");
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), util::JsonError);
  EXPECT_THROW(Json::parse("{"), util::JsonError);
  EXPECT_THROW(Json::parse("[1,]"), util::JsonError);
  EXPECT_THROW(Json::parse("{} extra"), util::JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), util::JsonError);
  EXPECT_THROW(Json::parse("{\"a\":1,\"a\":2}"), util::JsonError);
  EXPECT_THROW(Json::parse("truthy"), util::JsonError);
}

TEST(Json, AccessorsTypeCheck) {
  const Json doc = Json::parse("{\"a\": [1, 2], \"b\": \"x\"}");
  EXPECT_TRUE(doc.contains("a"));
  EXPECT_FALSE(doc.contains("z"));
  EXPECT_EQ(doc.at("a").size(), 2u);
  EXPECT_EQ(doc.at("a").at(1).as_double(), 2.0);
  EXPECT_EQ(doc.at("b").as_string(), "x");
  EXPECT_THROW((void)doc.at("z"), util::JsonError);
  EXPECT_THROW((void)doc.at("b").as_double(), util::JsonError);
  EXPECT_THROW((void)doc.at("a").at(5), util::JsonError);
}

TEST(Measurement, StatisticsAreOrderedAndExact) {
  util::Measurement m;
  m.samples = {0.4, 0.1, 0.3, 0.2};
  EXPECT_DOUBLE_EQ(m.min(), 0.1);
  EXPECT_DOUBLE_EQ(m.max(), 0.4);
  EXPECT_DOUBLE_EQ(m.mean(), 0.25);
  EXPECT_DOUBLE_EQ(m.median(), 0.25);  // average of 0.2 and 0.3
  m.samples.push_back(0.5);
  EXPECT_DOUBLE_EQ(m.median(), 0.3);
}

/// Build an artifact through the real harness and return it parsed.
Json emit_artifact(const std::string& dir) {
  const std::string dir_flag = "--json-dir=" + dir;
  const char* argv[] = {"test_bench", dir_flag.c_str(), "--threads=2"};
  const util::Cli cli(3, argv);
  bench::Harness h(cli, "test_bench", "schema self-test");
  EXPECT_EQ(h.threads(), 2u);

  util::Table table({"k", "v"});
  table.add(1, "one");
  table.add(2, "two");
  h.section("A test section");
  h.table(table);

  volatile std::uint64_t sink = 0;
  h.measure(
      "busy_loop", 5,
      [&] {
        for (std::uint64_t i = 0; i < 50'000; ++i) sink = sink + i;
      },
      /*items=*/50'000.0);
  EXPECT_EQ(h.finish(), 0);

  std::ifstream in(dir + "/BENCH_test_bench.json");
  EXPECT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  return Json::parse(text.str());
}

TEST(BenchHarness, ArtifactMatchesDocumentedSchema) {
  const Json doc = emit_artifact(::testing::TempDir());

  // Top-level keys, in schema order.
  const std::vector<std::string> keys = {
      "schema_version", "name",    "experiment", "threads",
      "tables",         "timings", "metrics"};
  ASSERT_EQ(doc.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(doc.as_object()[i].first, keys[i]);
  }
  EXPECT_EQ(doc.at("schema_version").as_double(), 1.0);
  EXPECT_EQ(doc.at("name").as_string(), "test_bench");
  EXPECT_EQ(doc.at("experiment").as_string(), "schema self-test");
  EXPECT_EQ(doc.at("threads").as_double(), 2.0);

  // The recorded table survives with title, columns, and cells intact.
  ASSERT_EQ(doc.at("tables").size(), 1u);
  const Json& table = doc.at("tables").at(0);
  EXPECT_EQ(table.at("title").as_string(), "A test section");
  ASSERT_EQ(table.at("columns").size(), 2u);
  EXPECT_EQ(table.at("columns").at(0).as_string(), "k");
  ASSERT_EQ(table.at("rows").size(), 2u);
  EXPECT_EQ(table.at("rows").at(1).at(1).as_string(), "two");

  // Timings: the explicit measurement plus the automatic "total", each with
  // monotone statistics from the monotonic clock.
  ASSERT_EQ(doc.at("timings").size(), 2u);
  const Json& busy = doc.at("timings").at(0);
  EXPECT_EQ(busy.at("label").as_string(), "busy_loop");
  EXPECT_EQ(busy.at("reps").as_double(), 5.0);
  EXPECT_GT(busy.at("items_per_second").as_double(), 0.0);
  EXPECT_EQ(doc.at("timings").at(1).at("label").as_string(), "total");
  for (const Json& t : doc.at("timings").as_array()) {
    const double lo = t.at("seconds_min").as_double();
    const double med = t.at("seconds_median").as_double();
    const double mean = t.at("seconds_mean").as_double();
    const double hi = t.at("seconds_max").as_double();
    EXPECT_GE(lo, 0.0);
    EXPECT_LE(lo, med);
    EXPECT_LE(med, hi);
    EXPECT_LE(lo, mean);
    EXPECT_LE(mean, hi);
  }

  // The embedded observability snapshot (see src/obs/json_export.hpp).
  const Json& metrics = doc.at("metrics");
  EXPECT_EQ(metrics.at("metrics_schema_version").as_double(), 1.0);
  EXPECT_TRUE(metrics.at("deterministic").is_object());
  EXPECT_TRUE(metrics.at("volatile").is_object());

  // The artifact round-trips through the parser: dump(parse(x)) == x
  // structurally.
  EXPECT_EQ(Json::parse(doc.dump(2)), doc);
}

}  // namespace
}  // namespace sharedres

// Self-tests of the benchmark's measurement helpers: the tail-percentile
// rule, the metric-name charset, span self times, the result line (parsed
// back with the repository's JSON reader) and canonical records.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "harness.hpp"

namespace jsonl = gemfi::campaign::jsonl;
using perfbench::Span;

namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

}  // namespace

TEST(Percentile, NearestRank) {
  EXPECT_EQ(perfbench::percentile({}, 500), 0.0);
  EXPECT_EQ(perfbench::percentile({7.0}, 990), 7.0);
  EXPECT_EQ(perfbench::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.0);  // rank ceil(0.5 * 4) = 2
  EXPECT_EQ(perfbench::percentile(one_to(1000), 990), 990.0);
  EXPECT_EQ(perfbench::percentile(one_to(1000), 1000), 1000.0);
}

TEST(Percentile, TailLeavesTenSamplesBeyond) {
  // 1000 samples: p99 is rank 990, exactly ten beyond.
  perfbench::TailPercentile t = perfbench::tail_percentile(one_to(1000));
  EXPECT_EQ(t.permille, 990u);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(t.samples, 1000u);

  // 999 samples: p99 (rank 990) leaves nine, so p95 (rank 950) it is.
  t = perfbench::tail_percentile(one_to(999));
  EXPECT_EQ(t.permille, 950u);
  EXPECT_EQ(t.value, 950.0);
  EXPECT_EQ(t.samples, 999u);

  // The cap: 20000 samples would allow p99.9, but the default caps at p99.
  EXPECT_EQ(perfbench::tail_percentile(one_to(20000)).permille, 990u);
  EXPECT_EQ(perfbench::tail_percentile(one_to(20000), 999).permille, 999u);

  // Too few samples for any tail: the median, with the count reported.
  t = perfbench::tail_percentile(one_to(12));
  EXPECT_EQ(t.permille, 500u);
  EXPECT_EQ(t.value, 6.0);
  EXPECT_EQ(t.samples, 12u);
  EXPECT_EQ(perfbench::tail_percentile({}).samples, 0u);
}

TEST(MetricName, Charset) {
  for (const char* ok :
       {"exps_per_s", "sim.run_ms_p99", "outcome.non-propagated", "0ratio", "a"})
    EXPECT_TRUE(perfbench::valid_metric_name(ok)) << ok;
  for (const char* bad : {"", "_leading", ".dot", "-dash", "has space", "slash/name",
                          "quote\"", "ünïcode"})
    EXPECT_FALSE(perfbench::valid_metric_name(bad)) << bad;
  EXPECT_TRUE(perfbench::valid_metric_name(std::string(64, 'x')));
  EXPECT_FALSE(perfbench::valid_metric_name(std::string(65, 'x')));
}

TEST(Spans, SelfTimeSubtractsChildren) {
  // experiment [0, 10] with restore [0, 2], sim [3, 9]; sim has a child [4, 5].
  const std::vector<Span> spans = {
      {"experiment", 0.0, 10.0, -1, 0},
      {"restore", 0.0, 2.0, 0, 0},
      {"sim", 3.0, 9.0, 0, 0},
      {"inner", 4.0, 5.0, 2, 0},
  };
  const std::vector<double> self = perfbench::self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 2.0);  // 10 - (2 + 6)
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 5.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
}

TEST(Spans, OverlappingAndOverhangingChildrenCountOnce) {
  // Two parallel executors under one campaign span, one running past it.
  const std::vector<Span> spans = {
      {"campaign", 0.0, 10.0, -1, -1},
      {"experiment", 1.0, 6.0, 0, 0},
      {"experiment", 2.0, 8.0, 0, 1},
      {"experiment", 9.0, 12.0, 0, 2},
  };
  const std::vector<double> self = perfbench::self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - (7.0 + 1.0));  // union [1, 8] + [9, 10]
}

TEST(Spans, RecorderNestsAndTimes) {
  perfbench::SpanRecorder rec;
  const std::int64_t outer = rec.begin("outer", -1);
  const std::int64_t inner = rec.begin("inner", outer, 5);
  rec.end(inner);
  rec.end(outer);
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.spans()[1].parent, outer);
  EXPECT_EQ(rec.spans()[1].exp, 5);
  EXPECT_GE(rec.spans()[0].duration(), rec.spans()[1].duration());
  EXPECT_GE(perfbench::self_times(rec.spans())[0], 0.0);
}

TEST(ResultLine, ParsesBackWithExactKeys) {
  const std::string line = perfbench::result_line(
      true, 1200, 3,
      {{"exps_per_s", 245.123456789012, "1/s"},
       {"setup_s", 0.0123, "s"},
       {"tiny", 1e-9, "s"}});
  const jsonl::Value v = jsonl::parse(line);
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.object.size(), 4u);
  EXPECT_TRUE(v.at("correct").as_bool());
  EXPECT_EQ(v.at("attempted").as_u64(), 1200u);
  EXPECT_EQ(v.at("failed").as_u64(), 3u);
  const jsonl::Value& m = v.at("metrics");
  ASSERT_EQ(m.object.size(), 3u);
  EXPECT_EQ(m.at("exps_per_s").at("value").as_double(), 245.123456789012);  // all digits
  EXPECT_EQ(m.at("exps_per_s").at("unit").as_string(), "1/s");
  EXPECT_EQ(m.at("tiny").at("value").as_double(), 1e-9);
  EXPECT_EQ(m.at("setup_s").object.size(), 2u);
}

TEST(ResultLine, RejectsBadMetrics) {
  EXPECT_THROW(perfbench::result_line(true, 1, 0, {{"bad name", 1.0, "s"}}),
               std::invalid_argument);
  EXPECT_THROW(perfbench::result_line(true, 1, 0, {{"a", 1.0, "s"}, {"a", 2.0, "s"}}),
               std::invalid_argument);
  EXPECT_THROW(perfbench::result_line(true, 1, 0, {{"a", 0.0 / 0.0, "s"}}),
               std::invalid_argument);
}

TEST(Records, CanonicalDropsSchedulingFieldsAndSortsKeys) {
  const std::string a =
      R"({"index":3,"worker":1,"seed":9,"outcome":"SDC","wall_seconds":0.01,)"
      R"("fastmode":true,"retries":0,"ckpt_format":"v2","restore_pages":5,)"
      R"("restore_bytes":20480,"metric":1.50})";
  const std::string b =
      R"({"restore_bytes":4096,"metric":1.50,"retries":0,"ckpt_format":"v2",)"
      R"("outcome":"SDC","seed":9,"index":3,"worker":0,"wall_seconds":0.5,)"
      R"("fastmode":false,"restore_pages":1})";
  const std::string ca = perfbench::canonical_record(jsonl::parse(a));
  EXPECT_EQ(ca, perfbench::canonical_record(jsonl::parse(b)));
  EXPECT_EQ(ca, R"({"ckpt_format":"v2","index":3,"metric":1.50,"outcome":"SDC",)"
                R"("retries":0,"seed":9})");
  EXPECT_NE(perfbench::fnv1a(ca), perfbench::fnv1a(ca + " "));
  EXPECT_EQ(perfbench::fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(perfbench::fnv1a("a"), 0xaf63dc4c8601ec8cull);
}

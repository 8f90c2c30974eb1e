// Unit tests for the host-time span profiler: deterministic fake-clock
// aggregation (total/self/child/max), nesting, the bounded span buffer,
// the ScopedProfiler install stack, and the render/CSV/tracer exports.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/expect.hpp"
#include "telemetry/span_profiler.hpp"
#include "telemetry/tracer.hpp"

namespace choir::telemetry {
namespace {

TEST(SpanProfiler, AggregatesSelfAndChildTime) {
  SpanProfiler p;
  // Drive the lifecycle with explicit timestamps: outer [0, 100] with a
  // nested inner [10, 40].
  p.enter("outer", 0);
  p.enter("inner", 10);
  p.exit(40);
  p.exit(100);

  const auto& aggregates = p.aggregates();
  ASSERT_TRUE(aggregates.count("outer"));
  ASSERT_TRUE(aggregates.count("inner"));
  const auto& outer = aggregates.at("outer");
  const auto& inner = aggregates.at("inner");
  EXPECT_EQ(outer.count, 1u);
  EXPECT_EQ(outer.total_ns, 100u);
  EXPECT_EQ(outer.child_ns, 30u);
  EXPECT_EQ(outer.self_ns(), 70u);
  EXPECT_EQ(outer.max_ns, 100u);
  EXPECT_EQ(inner.total_ns, 30u);
  EXPECT_EQ(inner.child_ns, 0u);
  EXPECT_EQ(inner.self_ns(), 30u);
}

TEST(SpanProfiler, SummarySortedBySelfTimeDescending) {
  SpanProfiler p;
  p.enter("small", 0);
  p.exit(10);
  p.enter("large", 20);
  p.exit(220);
  p.enter("mid", 300);
  p.exit(350);
  const auto summary = p.summary();
  ASSERT_EQ(summary.size(), 3u);
  EXPECT_EQ(summary[0].name, "large");
  EXPECT_EQ(summary[1].name, "mid");
  EXPECT_EQ(summary[2].name, "small");
}

TEST(SpanProfiler, RepeatedSpansAccumulateAndTrackMax) {
  SpanProfiler p;
  std::uint64_t t = 0;
  for (std::uint64_t dur : {5u, 50u, 20u}) {
    p.enter("hot", t);
    p.exit(t + dur);
    t += dur + 1;
  }
  const auto& agg = p.aggregates().at("hot");
  EXPECT_EQ(agg.count, 3u);
  EXPECT_EQ(agg.total_ns, 75u);
  EXPECT_EQ(agg.max_ns, 50u);
}

TEST(SpanProfiler, BoundedSpanBufferDropsButAggregatesExactly) {
  SpanProfiler p(/*max_spans=*/2);
  for (std::uint64_t i = 0; i < 5; ++i) {
    p.enter("s", i * 10);
    p.exit(i * 10 + 3);
  }
  EXPECT_EQ(p.dropped_spans(), 3u);
  EXPECT_EQ(p.aggregates().at("s").count, 5u);  // aggregates never drop
  EXPECT_EQ(p.aggregates().at("s").total_ns, 15u);
}

TEST(SpanProfiler, FakeTimeSourceDrivesNowNs) {
  SpanProfiler p;
  std::uint64_t fake = 1000;
  p.set_time_source([&fake] { return fake; });
  const std::uint64_t t0 = p.now_ns();
  fake += 250;
  EXPECT_EQ(p.now_ns(), t0 + 250);
}

TEST(SpanProfiler, ScopedInstallAndDisabledNoOp) {
  EXPECT_EQ(SpanProfiler::current(), nullptr);
  {
    // With no profiler installed a ProfileSpan is a harmless no-op.
    ProfileSpan idle("nobody-listens");
  }
  SpanProfiler outer_p;
  {
    ScopedProfiler outer(&outer_p);
    EXPECT_EQ(SpanProfiler::current(), &outer_p);
    SpanProfiler inner_p;
    {
      ScopedProfiler inner(&inner_p);
      EXPECT_EQ(SpanProfiler::current(), &inner_p);
      ProfileSpan span("probe");
    }
    EXPECT_EQ(SpanProfiler::current(), &outer_p);
    EXPECT_EQ(inner_p.aggregates().count("probe"), 1u);
    EXPECT_EQ(outer_p.aggregates().count("probe"), 0u);
  }
  EXPECT_EQ(SpanProfiler::current(), nullptr);
}

TEST(SpanProfiler, RendersTableAndCsv) {
  SpanProfiler p;
  p.enter("replay.pace", 0);
  p.exit(1000);
  p.enter("record.drain", 2000);
  p.exit(2500);
  const std::string table = p.render_table();
  EXPECT_NE(table.find("replay.pace"), std::string::npos);
  EXPECT_NE(table.find("record.drain"), std::string::npos);
  const std::string text = p.render_csv();
  EXPECT_NE(text.find("name,count,total_ns,self_ns"), std::string::npos);
  EXPECT_NE(text.find("record.drain,1,500,500"), std::string::npos);
}

TEST(SpanProfiler, ExportsSpansToTracerTrack) {
  SpanProfiler p;
  p.enter("kappa.compute", 100);
  p.exit(400);
  Tracer tracer;
  p.export_to_tracer(tracer);
  bool found_track = false;
  for (const auto& track : tracer.tracks()) {
    if (track.find("profiler") != std::string::npos) found_track = true;
  }
  EXPECT_TRUE(found_track);
  EXPECT_NE(tracer.render_chrome_json().find("kappa.compute"),
            std::string::npos);
}

}  // namespace
}  // namespace choir::telemetry

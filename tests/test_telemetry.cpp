// Unit tests for the telemetry subsystem: registry instruments, the
// log2-bucketed latency histogram, the Chrome-tracing exporter, the
// sampler, the ScopedTelemetry session / null-handle machinery, and the
// Exposure of counts a component keeps itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "sim/event_queue.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/telemetry.hpp"

namespace choir::telemetry {
namespace {

// ---- Registry ----------------------------------------------------------

TEST(Registry, GetOrCreateReturnsStableInstruments) {
  Registry registry;
  Counter& a = registry.counter("x.count");
  a.add(3);
  Counter& b = registry.counter("x.count");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3u);

  Gauge& g = registry.gauge("x.level");
  g.set(-5);
  EXPECT_EQ(registry.gauge("x.level").value(), -5);
  g.set_max(2);
  EXPECT_EQ(g.value(), 2);
  g.set_max(-7);  // lower than current: no change
  EXPECT_EQ(g.value(), 2);
}

TEST(Registry, SnapshotIsSortedByName) {
  Registry registry;
  registry.counter("zeta").add(1);
  registry.counter("alpha").add(2);
  registry.counter("mid.dle").add(3);
  registry.gauge("b").set(9);
  registry.gauge("a").set(8);

  const Snapshot s = registry.snapshot(Ns{42});
  EXPECT_EQ(s.at, 42);
  ASSERT_EQ(s.counters.size(), 3u);
  EXPECT_EQ(s.counters[0].first, "alpha");
  EXPECT_EQ(s.counters[1].first, "mid.dle");
  EXPECT_EQ(s.counters[2].first, "zeta");
  ASSERT_EQ(s.gauges.size(), 2u);
  EXPECT_EQ(s.gauges[0].first, "a");
  EXPECT_EQ(s.gauges[1].first, "b");
}

// ---- LatencyHistogram bucket math --------------------------------------

TEST(LatencyHistogram, BucketBoundaries) {
  // Values below 16 are exact unit buckets.
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(LatencyHistogram::bucket_index(v), v);
    EXPECT_EQ(LatencyHistogram::bucket_lo(v), v);
    EXPECT_EQ(LatencyHistogram::bucket_width(v), 1u);
  }
  // The first sub-bucketed range starts exactly at 16.
  EXPECT_EQ(LatencyHistogram::bucket_index(16), 16u);
  EXPECT_EQ(LatencyHistogram::bucket_lo(16), 16u);
  // Power-of-two boundaries land on the first sub-bucket of their range.
  for (int msb = 4; msb < 63; ++msb) {
    const std::uint64_t v = 1ull << msb;
    const std::size_t i = LatencyHistogram::bucket_index(v);
    EXPECT_EQ(LatencyHistogram::bucket_lo(i), v) << "msb=" << msb;
    // The value one below the boundary falls in the previous bucket.
    EXPECT_EQ(LatencyHistogram::bucket_index(v - 1), i - 1) << "msb=" << msb;
  }
  // Every bucket index round-trips through its own lower bound.
  for (std::size_t i = 0; i < LatencyHistogram::kBucketCount; ++i) {
    EXPECT_EQ(LatencyHistogram::bucket_index(LatencyHistogram::bucket_lo(i)),
              i);
  }
  // The largest representable value maps to the last bucket.
  EXPECT_EQ(LatencyHistogram::bucket_index(~0ull),
            LatencyHistogram::kBucketCount - 1);
}

TEST(LatencyHistogram, RelativeErrorBoundedBySubBuckets) {
  // Any value's bucket spans at most value/16 in width (above the exact
  // range), which bounds the percentile quantization error.
  for (std::uint64_t v : {17ull, 100ull, 999ull, 12345ull, 1ull << 40}) {
    const std::size_t i = LatencyHistogram::bucket_index(v);
    const std::uint64_t lo = LatencyHistogram::bucket_lo(i);
    const std::uint64_t w = LatencyHistogram::bucket_width(i);
    EXPECT_LE(lo, v);
    EXPECT_LT(v, lo + w);
    EXPECT_LE(w, v / 8 + 1);  // comfortably within 2x of the 1/16 bound
  }
}

// ---- LatencyHistogram percentiles --------------------------------------

TEST(LatencyHistogram, EmptyReportsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(0.0), 0);
  EXPECT_EQ(h.percentile(50.0), 0);
  EXPECT_EQ(h.percentile(100.0), 0);
}

TEST(LatencyHistogram, SingleSampleIsExactAtEveryPercentile) {
  LatencyHistogram h;
  h.record(12345);  // mid-bucket value; the [min,max] clamp makes it exact
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 12345);
  EXPECT_EQ(h.max(), 12345);
  EXPECT_EQ(h.percentile(0.0), 12345);
  EXPECT_EQ(h.percentile(50.0), 12345);
  EXPECT_EQ(h.percentile(99.9), 12345);
  EXPECT_EQ(h.percentile(100.0), 12345);
}

TEST(LatencyHistogram, P0AndP100ReturnTrackedEnvelopeExactly) {
  // The extreme ranks bypass the bucket midpoint entirely: p0 is the
  // tracked min and p100 the tracked max, even when both values sit in
  // the middle of wide buckets whose midpoints differ from them.
  LatencyHistogram h;
  const Ns lo = 100003;  // not a bucket boundary
  const Ns hi = 900007;
  h.record(hi);
  h.record(lo);
  for (int i = 0; i < 100; ++i) h.record(500000);
  EXPECT_EQ(h.percentile(0.0), lo);
  EXPECT_EQ(h.percentile(100.0), hi);
  // Sanity: midpoints of the envelope buckets are not the raw values,
  // so the equalities above prove the exact path was taken.
  const auto lo_bucket = LatencyHistogram::bucket_index(lo);
  const std::uint64_t lo_mid =
      LatencyHistogram::bucket_lo(lo_bucket) +
      (LatencyHistogram::bucket_width(lo_bucket) - 1) / 2;
  EXPECT_NE(static_cast<Ns>(lo_mid), lo);
}

TEST(LatencyHistogram, OutOfRangeAndNanPercentilesClamp) {
  LatencyHistogram h;
  for (int i = 1; i <= 10; ++i) h.record(i * 1000);
  EXPECT_EQ(h.percentile(-5.0), h.percentile(0.0));
  EXPECT_EQ(h.percentile(-5.0), h.min());
  EXPECT_EQ(h.percentile(250.0), h.percentile(100.0));
  EXPECT_EQ(h.percentile(250.0), h.max());
  EXPECT_EQ(h.percentile(std::numeric_limits<double>::quiet_NaN()), h.min());
}

TEST(LatencyHistogram, MaxSaturatesInsteadOfOverflowing) {
  LatencyHistogram h;
  const Ns huge = std::numeric_limits<Ns>::max();
  h.record(huge);
  h.record(1);
  EXPECT_EQ(h.max(), huge);
  EXPECT_EQ(h.min(), 1);
  // p100 is clamped to the exact max even though the top bucket is wide.
  EXPECT_EQ(h.percentile(100.0), huge);
}

TEST(LatencyHistogram, NegativeDurationsClampToZero) {
  LatencyHistogram h;
  h.record(-50);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(LatencyHistogram, PercentilesOrderedOnUniformData) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(i * 100);
  const auto s = h.summary();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_LE(s.min, s.p50);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);
  EXPECT_LE(s.p99, s.max);
  // Quantization keeps each percentile within ~1/16 of the true value.
  EXPECT_NEAR(static_cast<double>(s.p50), 50000.0, 50000.0 / 8);
  EXPECT_NEAR(static_cast<double>(s.p90), 90000.0, 90000.0 / 8);
  EXPECT_NEAR(static_cast<double>(s.p99), 99000.0, 99000.0 / 8);
}

// ---- Tracer ------------------------------------------------------------

// Minimal structural JSON check: balanced delimiters outside strings and
// no trailing comma before a closer.
void expect_well_formed_json(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  char prev_significant = '\0';
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
        prev_significant = '"';
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
      continue;
    }
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      --depth;
      EXPECT_NE(prev_significant, ',') << "trailing comma at offset " << i;
    }
    EXPECT_GE(depth, 0);
    if (!std::isspace(static_cast<unsigned char>(c))) prev_significant = c;
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
}

TEST(Tracer, ChromeJsonIsWellFormed) {
  Tracer tracer;
  const std::uint32_t mb = tracer.track("middlebox.0");
  tracer.span("record", Ns{1000}, Ns{5500}, 0);
  tracer.instant("wake \"quoted\"\r\n", Ns{2001}, mb);
  tracer.span("replay", Ns{7000}, Ns{9123}, mb,
              "{\"bursts\":3}");
  const std::string text = tracer.render_chrome_json();
  expect_well_formed_json(text);
  EXPECT_NE(text.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  // ts is exported in microseconds with ns precision: 1000ns -> 1.000.
  EXPECT_NE(text.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(text.find("\"dur\":4.500"), std::string::npos);
  // The quoted/newlined name survives escaping; CR uses the short form.
  EXPECT_NE(text.find("wake \\\"quoted\\\"\\r\\n"), std::string::npos);
  EXPECT_NE(text.find("\"bursts\":3"), std::string::npos);
}

TEST(Tracer, TrackZeroIsExperimentAndTracksDedupe) {
  Tracer tracer;
  EXPECT_EQ(tracer.tracks().size(), 1u);
  EXPECT_EQ(tracer.tracks()[0], "experiment");
  const auto a = tracer.track("recorder");
  const auto b = tracer.track("recorder");
  EXPECT_EQ(a, b);
  EXPECT_EQ(tracer.tracks().size(), 2u);
}

TEST(Tracer, DropsPastTheEventCap) {
  Tracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    std::string name = "e";
    name += std::to_string(i);
    tracer.instant(name, Ns{i});
  }
  EXPECT_EQ(tracer.events().size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  expect_well_formed_json(tracer.render_chrome_json());
}

// ---- Sampler -----------------------------------------------------------

TEST(Sampler, SamplesPeriodicallyOnSimTime) {
  sim::EventQueue queue;
  Registry registry;
  Counter& c = registry.counter("ticks");
  SeriesConfig cfg;
  cfg.interval = milliseconds(1);
  SeriesSampler sampler(queue, registry, cfg);
  sampler.start();
  // A mutation mid-way; later snapshots must observe it.
  queue.schedule_at(microseconds(2500), [&c] { c.add(7); });
  queue.run_until(milliseconds(4) + microseconds(500));
  sampler.sample_now();

  const std::vector<Snapshot>& snapshots = sampler.snapshots();
  ASSERT_EQ(snapshots.size(), 5u);  // 1,2,3,4ms + final
  EXPECT_EQ(snapshots[0].at, milliseconds(1));
  EXPECT_EQ(snapshots[3].at, milliseconds(4));
  EXPECT_EQ(snapshots[1].counters[0].second, 0u);  // t=2ms
  EXPECT_EQ(snapshots[2].counters[0].second, 7u);  // t=3ms
  // The same tick feeds the series: one point per snapshot.
  EXPECT_EQ(sampler.entries().at("ticks").series.size(), snapshots.size());
}

TEST(Sampler, RejectsNonPositiveInterval) {
  // A zero interval would reschedule its tick at the same instant
  // forever; the sampler refuses it up front.
  sim::EventQueue queue;
  Registry registry;
  SeriesConfig cfg;
  cfg.interval = 0;
  EXPECT_THROW(SeriesSampler(queue, registry, cfg), Error);
  cfg.interval = -milliseconds(1);
  EXPECT_THROW(SeriesSampler(queue, registry, cfg), Error);
}

// ---- Session / handles -------------------------------------------------

TEST(ScopedTelemetry, NullHandlesWithoutSession) {
  ASSERT_EQ(Registry::current(), nullptr);
  CounterHandle c = counter("orphan");
  GaugeHandle g = gauge("orphan");
  HistogramHandle h = histogram("orphan");
  EXPECT_FALSE(static_cast<bool>(c));
  EXPECT_FALSE(static_cast<bool>(g));
  EXPECT_FALSE(static_cast<bool>(h));
  // All no-ops, no crash.
  c.add();
  g.set(1);
  h.record(5);
  EXPECT_EQ(tracer(), nullptr);
  EXPECT_EQ(track("anything"), 0u);
}

TEST(ScopedTelemetry, InstallsAndNests) {
  Registry outer_registry;
  Tracer outer_tracer;
  {
    ScopedTelemetry outer(&outer_registry, &outer_tracer);
    EXPECT_EQ(Registry::current(), &outer_registry);
    counter("hits").add(2);
    {
      Registry inner_registry;
      ScopedTelemetry inner(&inner_registry, nullptr);
      EXPECT_EQ(Registry::current(), &inner_registry);
      EXPECT_EQ(Tracer::current(), nullptr);
      counter("hits").add(40);
      EXPECT_EQ(inner_registry.counter("hits").value(), 40u);
    }
    EXPECT_EQ(Registry::current(), &outer_registry);
    EXPECT_EQ(Tracer::current(), &outer_tracer);
  }
  EXPECT_EQ(Registry::current(), nullptr);
  EXPECT_EQ(outer_registry.counter("hits").value(), 2u);
}

// ---- Exposure -----------------------------------------------------------

TEST(Exposure, RegistersNothingWithoutSession) {
  ASSERT_EQ(Registry::current(), nullptr);
  Registry registry;
  const std::uint64_t forwarded = 5;
  auto exposure = std::make_unique<Exposure>();
  exposure->counter("x.forwarded", forwarded);
  // A session opened later sees nothing, not even the destructor's fold.
  ScopedTelemetry session(&registry, nullptr);
  exposure.reset();
  EXPECT_TRUE(registry.counters().empty());
}

TEST(Exposure, ReadsLiveAndExposersOfOneNameAddUp) {
  Registry registry;
  ScopedTelemetry session(&registry, nullptr);
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  Exposure first;
  Exposure second;
  first.counter("ctl.sent", a);
  second.counter("ctl.sent", b);
  counter("ctl.sent").add(1);  // a handle of the same name adds too
  a = 3;
  b = 4;
  EXPECT_EQ(registry.counter("ctl.sent").value(), 8u);
  ++a;
  EXPECT_EQ(registry.counter("ctl.sent").value(), 9u);
  EXPECT_EQ(registry.snapshot(Ns{0}).counters.at(0).second, 9u);
}

TEST(Exposure, RegistryKeepsTheFinalValueAfterTheExposerIsGone) {
  Registry registry;
  ScopedTelemetry session(&registry, nullptr);
  std::uint64_t survivor = 2;
  Exposure kept;
  kept.counter("drops", survivor);
  {
    std::uint64_t drops = 0;
    Exposure exposure;
    exposure.counter("drops", drops);
    exposure.counter("other", drops);
    drops = 40;
  }
  EXPECT_EQ(registry.counter("drops").value(), 42u);
  EXPECT_EQ(registry.counter("other").value(), 40u);
  survivor = 7;  // the live exposer is still read, the folded one kept
  EXPECT_EQ(registry.counter("drops").value(), 47u);
}

// ---- merge_from (worker-scoped sessions) -------------------------------

TEST(Registry, MergeFromAddsCountersMaxesGaugesAndFoldsHistograms) {
  Registry agg;
  agg.counter("shared").add(10);
  agg.gauge("depth").set_max(7);
  agg.histogram("lat").record(100);

  Registry worker;
  worker.counter("shared").add(5);
  worker.counter("worker_only").add(2);
  worker.gauge("depth").set_max(3);   // below the aggregate's reading
  worker.gauge("other").set_max(11);  // new instrument
  worker.histogram("lat").record(200);
  worker.histogram("lat").record(300);

  agg.merge_from(worker);
  EXPECT_EQ(agg.counter("shared").value(), 15u);
  EXPECT_EQ(agg.counter("worker_only").value(), 2u);
  EXPECT_EQ(agg.gauge("depth").value(), 7);
  EXPECT_EQ(agg.gauge("other").value(), 11);
  const auto s = agg.histogram("lat").summary();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.min, 100);
  EXPECT_EQ(s.max, 300);
}

TEST(LatencyHistogram, MergeFromIsSampleExact) {
  LatencyHistogram a;
  a.record(10);
  a.record(1000);
  LatencyHistogram b;
  b.record(5);
  b.record(50'000);

  LatencyHistogram reference;
  for (const std::int64_t v : {10, 1000, 5, 50'000}) reference.record(v);

  a.merge_from(b);
  const auto merged = a.summary();
  const auto expected = reference.summary();
  EXPECT_EQ(merged.count, expected.count);
  EXPECT_EQ(merged.min, expected.min);
  EXPECT_EQ(merged.max, expected.max);
  EXPECT_EQ(merged.p50, expected.p50);
  EXPECT_EQ(merged.p99, expected.p99);

  // Merging an empty histogram changes nothing (min stays honest).
  LatencyHistogram empty;
  a.merge_from(empty);
  EXPECT_EQ(a.summary().count, expected.count);
  EXPECT_EQ(a.summary().min, expected.min);
}

}  // namespace
}  // namespace choir::telemetry

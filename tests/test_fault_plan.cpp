// FaultPlan validation, its text form (examples/fault_plan_text.hpp), and
// the shipped chaos schedules.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/expect.hpp"
#include "fault/chaos.hpp"
#include "fault/fault_plan.hpp"
#include "fault_plan_text.hpp"

namespace choir::fault {
namespace {

TEST(FaultPlan, ParsesEveryKindAndRoundTrips) {
  const std::string text =
      "# chaos schedule\n"
      "link_down target=link.gen0 start=1ms duration=2ms\n"
      "link_drop target=* start=0 duration=5s p=0.25\n"
      "link_corrupt target=link.repl0-out start=3us duration=40us p=0.5\n"
      "link_duplicate target=* start=10ms duration=10ms p=0.1 delay=5us\n"
      "link_reorder target=* start=0 duration=1s p=0.02 delay=20us\n"
      "nic_rx_stall target=nic.repl0-in start=12ms duration=300us\n"
      "nic_tx_stall target=* start=14ms duration=250ns\n"
      "nic_burst_truncate target=* start=0 duration=1s burst_cap=4\n"
      "mem_pressure target=pool.gen0 start=20ms duration=1ms p=1.0\n"
      "clock_degrade target=clock.repl1 start=0 duration=2s factor=100\n";
  const FaultPlan plan = parse_plan(text);
  ASSERT_EQ(plan.size(), 10u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kLinkDown);
  EXPECT_EQ(plan.events()[0].target, "link.gen0");
  EXPECT_EQ(plan.events()[0].start, milliseconds(1));
  EXPECT_EQ(plan.events()[0].duration, milliseconds(2));
  EXPECT_DOUBLE_EQ(plan.events()[1].probability, 0.25);
  EXPECT_EQ(plan.events()[3].delay, microseconds(5));
  EXPECT_EQ(plan.events()[7].burst_cap, 4);
  EXPECT_EQ(layer_of(plan.events()[8].kind), FaultLayer::kMempool);
  EXPECT_DOUBLE_EQ(plan.events()[9].factor, 100.0);
  EXPECT_EQ(layer_of(plan.events()[9].kind), FaultLayer::kClock);

  // plan_to_text() -> parse_plan() is the identity on validated plans.
  const FaultPlan again = parse_plan(plan_to_text(plan));
  ASSERT_EQ(again.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(again.events()[i].kind, plan.events()[i].kind) << i;
    EXPECT_EQ(again.events()[i].target, plan.events()[i].target) << i;
    EXPECT_EQ(again.events()[i].start, plan.events()[i].start) << i;
    EXPECT_EQ(again.events()[i].duration, plan.events()[i].duration) << i;
    EXPECT_DOUBLE_EQ(again.events()[i].probability,
                     plan.events()[i].probability)
        << i;
    EXPECT_EQ(again.events()[i].delay, plan.events()[i].delay) << i;
    EXPECT_EQ(again.events()[i].burst_cap, plan.events()[i].burst_cap) << i;
    EXPECT_DOUBLE_EQ(again.events()[i].factor, plan.events()[i].factor) << i;
  }
}

TEST(FaultPlan, RejectsMalformedDirectives) {
  // Unknown kind, missing window, junk value, out-of-range probability:
  // all typed FormatErrors, not generic Errors or crashes.
  EXPECT_THROW(parse_plan("frobnicate target=* start=0 duration=1ms"),
               FormatError);
  EXPECT_THROW(parse_plan("link_drop target=*"), FormatError);
  EXPECT_THROW(parse_plan("link_drop target=* start=zap duration=1ms"),
               FormatError);
  EXPECT_THROW(
      parse_plan("link_drop target=* start=0 duration=1ms p=1.5"),
      FormatError);
  EXPECT_THROW(
      parse_plan("link_drop target=* start=0 duration=1ms warp=9"),
      FormatError);
}

TEST(FaultPlan, RejectsNonFiniteAndOutOfRangeNumbers) {
  // NaN passes every < / > range test, and a time outside the Ns range
  // cannot be converted. Each must be a line-numbered FormatError.
  const char* const lines[] = {
      "link_drop target=* start=0 duration=1ms p=nan",
      "link_drop target=* start=0 duration=1ms p=inf",
      "clock_degrade target=clock.repl0 start=0 duration=1ms factor=nan",
      "clock_degrade target=clock.repl0 start=0 duration=1ms factor=inf",
      "link_drop target=* start=nan duration=1ms",
      "link_drop target=* start=0 duration=nanms",
      "link_drop target=* start=0 duration=infs",
      "link_drop target=* start=0 duration=1e300s",
      "link_drop target=* start=-1e300 duration=1ms",
      "link_duplicate target=* start=0 duration=1ms delay=1e19",
  };
  for (const char* line : lines) {
    try {
      parse_plan(std::string("# plan\n") + line + "\n");
      ADD_FAILURE() << "accepted: " << line;
    } catch (const FormatError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
  // Each time fits, but the window end start + duration does not.
  EXPECT_THROW(parse_plan("link_drop target=* start=9e18 duration=9e18"),
               FormatError);

  // Plans built in code go through validate().
  FaultEvent e;
  e.kind = FaultKind::kLinkDrop;
  e.duration = milliseconds(1);
  e.probability = std::nan("");
  EXPECT_THROW(FaultPlan().add(e).validate(), FormatError);
  e.probability = 1.0;
  e.kind = FaultKind::kClockDegrade;
  e.factor = std::nan("");
  EXPECT_THROW(FaultPlan().add(e).validate(), FormatError);
  e.factor = std::numeric_limits<double>::infinity();
  EXPECT_THROW(FaultPlan().add(e).validate(), FormatError);
}

TEST(FaultPlan, ValidateCatchesBadProgrammaticEvents) {
  FaultPlan plan;
  FaultEvent e;
  e.kind = FaultKind::kLinkDrop;
  e.start = 0;
  e.duration = milliseconds(1);
  e.probability = 2.0;
  plan.add(e);
  EXPECT_THROW(plan.validate(), FormatError);
}

TEST(FaultPlan, WindowsAndTargets) {
  FaultEvent e;
  e.start = 100;
  e.duration = 50;
  e.target = "link.gen0";
  EXPECT_FALSE(e.active_at(99));
  EXPECT_TRUE(e.active_at(100));
  EXPECT_TRUE(e.active_at(149));
  EXPECT_FALSE(e.active_at(150));
  EXPECT_TRUE(e.matches("link.gen0"));
  EXPECT_FALSE(e.matches("link.gen1"));
  e.target = "*";
  EXPECT_TRUE(e.matches("anything"));
}

TEST(ChaosPlans, ScaleWithIntensityAndValidate) {
  EXPECT_TRUE(chaos_plan(0.0).empty());
  const FaultPlan half = chaos_plan(0.5);
  const FaultPlan full = chaos_plan(1.0);
  EXPECT_FALSE(half.empty());
  half.validate();
  full.validate();

  // Per-frame probabilities scale linearly with intensity.
  double p_half = 0.0, p_full = 0.0;
  for (const FaultEvent& e : half.events()) {
    if (e.kind == FaultKind::kLinkDrop) p_half = e.probability;
  }
  for (const FaultEvent& e : full.events()) {
    if (e.kind == FaultKind::kLinkDrop) p_full = e.probability;
  }
  EXPECT_GT(p_half, 0.0);
  EXPECT_NEAR(p_full, 2.0 * p_half, 1e-12);

  // The same intensity always builds the identical plan (pure function).
  EXPECT_EQ(plan_to_text(chaos_plan(0.7)), plan_to_text(chaos_plan(0.7)));
}

}  // namespace
}  // namespace choir::fault

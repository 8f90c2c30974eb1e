// Fault tour: deterministic chaos for the record/replay pipeline.
//
//  1. Run the same seeded experiment clean and under the shipped chaos
//     plan, and print the consistency delta (kappa with vs without
//     faults) plus the per-layer fault audit trail.
//  2. Sweep chaos intensity and show kappa eroding monotonically while
//     every run still completes and evaluates — degrade, never die.
//  3. Show the declarative FaultPlan text format round-tripping, the
//     same schedule a user would load from a file.
//
// Build & run:  ./build/examples/fault_tour
// (exits 1 unless the plan's text form round-trips)
#include <cstdio>

#include "fault/chaos.hpp"
#include "fault_plan_text.hpp"
#include "testbed/experiment.hpp"

using namespace choir;

namespace {

testbed::ExperimentConfig config(double intensity) {
  testbed::ExperimentConfig cfg;
  cfg.env = testbed::chaos_single(intensity);
  cfg.packets = 8'000;
  cfg.runs = 3;
  cfg.seed = 11;
  cfg.collect_series = false;
  return cfg;
}

}  // namespace

int main() {
  // --- 1: kappa with and without faults -------------------------------
  const auto clean = testbed::run_experiment(config(0.0));
  const auto chaotic = testbed::run_experiment(config(0.6));
  std::printf("mean kappa, no faults:        %.6f\n", clean.mean.kappa);
  std::printf("mean kappa, chaos @ 0.60:     %.6f\n", chaotic.mean.kappa);
  std::printf("kappa delta under faults:     %+.6f\n\n",
              chaotic.mean.kappa - clean.mean.kappa);

  const auto& fs = chaotic.fault_stats;
  std::printf("fault audit trail (chaos @ 0.60):\n");
  std::printf("  link:    %llu dropped, %llu corrupted, %llu duplicated, "
              "%llu reordered, %llu down-window drops\n",
              static_cast<unsigned long long>(fs.frames_dropped),
              static_cast<unsigned long long>(fs.frames_corrupted),
              static_cast<unsigned long long>(fs.frames_duplicated),
              static_cast<unsigned long long>(fs.frames_reordered),
              static_cast<unsigned long long>(fs.link_down_drops));
  std::printf("  nic:     %llu rx polls stalled, %llu tx bursts stalled, "
              "%llu bursts truncated\n",
              static_cast<unsigned long long>(fs.rx_stalled_polls),
              static_cast<unsigned long long>(fs.tx_stalled_bursts),
              static_cast<unsigned long long>(fs.bursts_truncated));
  std::printf("  mempool: %llu allocs denied (generator lost %llu frames)\n",
              static_cast<unsigned long long>(fs.allocs_denied),
              static_cast<unsigned long long>(
                  chaotic.generator_alloc_failures));
  std::printf("  control: %llu redundant retries, %llu local send "
              "failures\n\n",
              static_cast<unsigned long long>(chaotic.control_retries),
              static_cast<unsigned long long>(chaotic.control_send_failures));

  // --- 2: the intensity sweep -----------------------------------------
  std::printf("%-10s %-10s %-12s %s\n", "intensity", "kappa", "faults",
              "recorded");
  for (const double intensity : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const auto r = testbed::run_experiment(config(intensity));
    std::printf("%-10.2f %-10.6f %-12llu %llu\n", intensity, r.mean.kappa,
                static_cast<unsigned long long>(r.fault_stats.total()),
                static_cast<unsigned long long>(r.recorded_packets));
  }

  // --- 3: the declarative plan format ---------------------------------
  const fault::FaultPlan plan = fault::parse_plan(
      "# drop 10% on the generator link for 5 ms, then stall the NIC\n"
      "link_drop target=link.gen0 start=1ms duration=5ms p=0.1\n"
      "nic_rx_stall target=nic.repl0-in start=8ms duration=300us\n");
  const std::string text = fault::plan_to_text(plan);
  const bool round_trips =
      fault::plan_to_text(fault::parse_plan(text)) == text;
  std::printf("\nparsed %zu-event plan, canonical form (%s):\n%s",
              plan.size(), round_trips ? "round-trips" : "MISMATCH - bug!",
              text.c_str());
  return round_trips ? 0 : 1;
}

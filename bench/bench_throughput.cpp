// Throughput benchmarks: the Section 5 claims ("sustains peak speeds of
// 100 Gbps (8.9 Mpps)", "up to 64-packet bursts", zero-copy recording,
// <= minimal per-packet work) exercised against the simulated datapath,
// plus the substrate microbenchmarks (mempool churn, ring bursts) that
// bound the forwarding loop's per-packet cost on the host.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include "choir/middlebox.hpp"
#include "gen/generator.hpp"
#include "net/poll_loop.hpp"
#include "pktio/ring.hpp"
#include "testbed/experiment.hpp"
#include "testbed/presets.hpp"
#include "trace/trace_file.hpp"

namespace {

using namespace choir;

// --- substrate micro ----------------------------------------------------

void BM_MempoolAllocRelease(benchmark::State& state) {
  pktio::Mempool pool(4096);
  for (auto _ : state) {
    pktio::Mbuf* m = pool.alloc();
    benchmark::DoNotOptimize(m);
    pktio::Mempool::release(m);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MempoolAllocRelease);

void BM_MempoolRetainRelease(benchmark::State& state) {
  pktio::Mempool pool(16);
  pktio::Mbuf* m = pool.alloc();
  for (auto _ : state) {
    pktio::Mempool::retain(m);
    pktio::Mempool::release(m);
  }
  pktio::Mempool::release(m);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MempoolRetainRelease);

void BM_RingBurst(benchmark::State& state) {
  const auto burst = static_cast<std::uint16_t>(state.range(0));
  pktio::Mempool pool(512);
  pktio::Ring ring(512);
  std::vector<pktio::Mbuf*> pkts(burst);
  for (auto& p : pkts) p = pool.alloc();
  pktio::Mbuf* out[256];
  for (auto _ : state) {
    ring.enqueue_burst(pkts.data(), burst);
    benchmark::DoNotOptimize(ring.dequeue_burst(out, burst));
  }
  for (auto* p : pkts) pktio::Mempool::release(p);
  state.SetItemsProcessed(state.iterations() * burst);
}
BENCHMARK(BM_RingBurst)->Arg(1)->Arg(8)->Arg(32)->Arg(64);

// --- trace loading ------------------------------------------------------

// A synthetic on-disk trace shared by the loader micros (written once,
// lazily, into the system temp dir).
const std::string& loader_trace_path(std::size_t packets) {
  static std::string path;
  static std::size_t written = 0;
  if (written != packets) {
    path = (std::filesystem::temp_directory_path() /
            ("choir_bench_load_" + std::to_string(packets) + ".trc"))
               .string();
    trace::Capture cap("bench");
    cap.reserve(packets);
    for (std::size_t i = 0; i < packets; ++i) {
      trace::CaptureRecord r;
      r.timestamp = static_cast<Ns>(i) * 280;
      r.wire_len = 1400;
      r.header_len = 48;
      r.payload_token = i * 0x9e3779b97f4a7c15ULL + 1;
      cap.append(r);
    }
    trace::write_trace(cap, path);
    written = packets;
  }
  return path;
}

// Copying loader: read_trace copies every 87-byte record into a
// Capture, then to_trial materializes ids and timestamps from it.
void BM_ParseLoad(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::string& path = loader_trace_path(n);
  for (auto _ : state) {
    const core::Trial t = trace::read_trace(path).to_trial();
    benchmark::DoNotOptimize(t.packets().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ParseLoad)->Range(1 << 12, 1 << 16);

// Zero-copy loader: MappedCapture serves ids and timestamps straight
// from the page cache; the 48-byte headers the trial never looks at are
// never copied. Same validation, same trial bytes.
void BM_MappedLoad(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::string& path = loader_trace_path(n);
  for (auto _ : state) {
    const trace::MappedCapture mapped(path);
    const core::Trial t = mapped.to_trial();
    benchmark::DoNotOptimize(t.packets().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MappedLoad)->Range(1 << 12, 1 << 16);

// --- datapath -----------------------------------------------------------

// Full record+replay pipeline at a given offered rate; counters report
// the simulated rate the replay actually sustained on the wire.
void pipeline_at_rate(benchmark::State& state, BitsPerSec rate) {
  const std::uint64_t packets = 30000;
  std::uint64_t replayed = 0;
  double sim_rate_gbps = 0;
  for (auto _ : state) {
    testbed::ExperimentConfig cfg;
    cfg.env = testbed::local_single();
    cfg.env.rate = rate;
    // Quiet devices: this measures the engine, not the environment.
    cfg.env.recorder_nic.stall_rate_hz = 0;
    cfg.env.recorder_nic.wander_sigma_ns = 0;
    cfg.packets = packets;
    cfg.runs = 2;
    cfg.seed = 7;
    cfg.collect_series = false;
    const auto result = testbed::run_experiment(cfg);
    replayed += result.capture_sizes[1];
    sim_rate_gbps = static_cast<double>(result.capture_sizes[1]) *
                    cfg.env.frame_bytes * 8.0 /
                    static_cast<double>(result.trial_duration);
    if (result.capture_sizes[1] != packets) {
      state.SkipWithError("replay lost packets");
      return;
    }
  }
  state.counters["sim_gbps"] = sim_rate_gbps;
  state.counters["sim_mpps"] =
      sim_rate_gbps * 1e9 / (8.0 * 1400.0) / 1e6;
  state.SetItemsProcessed(static_cast<std::int64_t>(replayed));
}

void BM_ReplayPipeline40G(benchmark::State& state) {
  pipeline_at_rate(state, gbps(40));
}
BENCHMARK(BM_ReplayPipeline40G)->Unit(benchmark::kMillisecond);

void BM_ReplayPipeline80G(benchmark::State& state) {
  pipeline_at_rate(state, gbps(80));
}
BENCHMARK(BM_ReplayPipeline80G)->Unit(benchmark::kMillisecond);

void BM_ReplayPipeline100G(benchmark::State& state) {
  // The paper's peak: 100 Gbps of 1400-byte frames ~ 8.9 Mpps. Loss-free
  // replay at this rate is asserted via SkipWithError above.
  pipeline_at_rate(state, gbps(99.7));
}
BENCHMARK(BM_ReplayPipeline100G)->Unit(benchmark::kMillisecond);

// Burst-size ablation (the Section 5 design point): the forwarding loop
// drains at most `burst` frames per ~800 ns iteration, capping the
// sustainable rate at burst/interval. The counter reports the highest
// offered rate that still recorded and replayed losslessly — small
// bursts cannot hold line rate; 64-packet bursts can.
void BM_ForwardingBurstCap(benchmark::State& state) {
  const auto burst = static_cast<std::uint16_t>(state.range(0));
  const std::uint64_t packets = 20000;
  double ok_gbps = 0;
  for (auto _ : state) {
    ok_gbps = 0;
    for (const double rate_g : {10.0, 20.0, 40.0, 80.0, 99.7}) {
      testbed::ExperimentConfig cfg;
      cfg.env = testbed::local_single();
      cfg.env.rate = gbps(rate_g);
      cfg.env.choir.rx_burst_size = burst;
      cfg.packets = packets;
      cfg.runs = 2;
      cfg.seed = 11;
      cfg.collect_series = false;
      const auto result = testbed::run_experiment(cfg);
      if (result.recorded_packets == packets &&
          result.capture_sizes[1] == packets) {
        ok_gbps = rate_g;
      }
    }
  }
  state.counters["max_lossless_gbps"] = ok_gbps;
  // Nominal capacity of the loop at this burst size.
  state.counters["loop_mpps_cap"] =
      static_cast<double>(burst) / 800.0 * 1e3;
}
BENCHMARK(BM_ForwardingBurstCap)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(64)  // the paper's burst size
    ->Unit(benchmark::kMillisecond);

}  // namespace

#include "bench_micro_json.hpp"

int main(int argc, char** argv) {
  return choir::bench::micro_benchmark_main("throughput", argc, argv);
}

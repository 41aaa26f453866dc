// Engine microbenchmarks (google-benchmark): the hot paths whose cost
// bounds how much network time the figure benches can afford to simulate.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/analyzer.hpp"
#include "core/delay_components.hpp"
#include "core/report.hpp"
#include "core/streaming.hpp"
#include "phy/error_model.hpp"
#include "sim/simulator.hpp"
#include "trace/merge.hpp"
#include "trace/pcap.hpp"
#include "trace/reader.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace wlan;

void BM_RngNext(benchmark::State& state) {
  // wlan-lint: allow(rng-seed) — single fixed micro-bench stream; BM_RngNext
  // is the cross-machine normalization anchor (scripts/perf_guard.py)
  util::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void BM_RngExponential(benchmark::State& state) {
  // wlan-lint: allow(rng-seed) — single fixed micro-bench stream
  util::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.exponential(0.125));
}
BENCHMARK(BM_RngExponential);

void BM_FrameSuccessProbability(benchmark::State& state) {
  double snr = 3.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        phy::frame_success_probability(phy::Rate::kR11, 1506, snr));
    snr = snr > 30.0 ? 3.0 : snr + 0.1;
  }
}
BENCHMARK(BM_FrameSuccessProbability);

void BM_CbtComputation(benchmark::State& state) {
  const auto delays = core::DelayComponents::paper();
  trace::CaptureRecord r;
  r.type = mac::FrameType::kData;
  r.size_bytes = 1506;
  r.rate = phy::Rate::kR11;
  for (auto _ : state) benchmark::DoNotOptimize(delays.cbt(r));
}
BENCHMARK(BM_CbtComputation);

/// The event kernel at a steady 64 pending events: one schedule per
/// iteration, then the earliest event runs alone, as a control event does.
void BM_EventQueueScheduleRun(benchmark::State& state) {
  sim::Simulator sim;
  // wlan-lint: allow(rng-seed) — single fixed micro-bench stream
  util::Rng rng(3);
  for (auto _ : state) {
    sim.in(Microseconds{static_cast<std::int64_t>(rng.uniform(1000))}, [] {});
    if (sim.pending_events() > 64) {
      const sim::EventKey next = sim.next_key();
      sim.run_until_key(next.at, next.seq + 1);
    }
  }
}
BENCHMARK(BM_EventQueueScheduleRun);

/// End-to-end: one simulated network second at moderate congestion.
void BM_SimulatedSecond(benchmark::State& state) {
  for (auto _ : state) {
    workload::CellConfig cell;
    cell.seed = 11;
    cell.num_users = 10;
    cell.profile.mean_pps = 60.0;
    cell.duration_s = 1.5;
    cell.warmup_s = 0.5;
    cell.timing = mac::TimingProfile::kStandard;
    cell.profile.window = 3;
    benchmark::DoNotOptimize(workload::run_cell(cell));
  }
}
BENCHMARK(BM_SimulatedSecond)->Unit(benchmark::kMillisecond);

/// Analyzer throughput over a pre-built congested trace.
void BM_AnalyzeTrace(benchmark::State& state) {
  workload::CellConfig cell;
  cell.seed = 12;
  cell.num_users = 12;
  cell.profile.mean_pps = 60.0;
  cell.duration_s = 10.0;
  cell.timing = mac::TimingProfile::kStandard;
  cell.profile.window = 3;
  const auto result = workload::run_cell(cell);
  const core::TraceAnalyzer analyzer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.analyze(result.trace));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(result.trace.records.size()));
}
BENCHMARK(BM_AnalyzeTrace)->Unit(benchmark::kMillisecond);

/// Same trace through the push-based drain path (figures accumulated on the
/// fly, per-second results dropped) — the wlan_analyze hot loop.
void BM_StreamingAnalyzeDrain(benchmark::State& state) {
  workload::CellConfig cell;
  cell.seed = 12;
  cell.num_users = 12;
  cell.profile.mean_pps = 60.0;
  cell.duration_s = 10.0;
  cell.timing = mac::TimingProfile::kStandard;
  cell.profile.window = 3;
  const auto result = workload::run_cell(cell);
  for (auto _ : state) {
    core::FigureAccumulator acc;
    core::FigureStreamSink sink(acc);
    core::StreamingAnalyzer analyzer({}, &sink);
    analyzer.set_bounds(result.trace.start_us, result.trace.end_us);
    for (const auto& r : result.trace.records) analyzer.push(r);
    auto analysis = analyzer.finish();
    acc.add_senders(analysis.senders);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(result.trace.records.size()));
}
BENCHMARK(BM_StreamingAnalyzeDrain)->Unit(benchmark::kMillisecond);

/// Clock-corrected dedup merge of a two-sniffer capture.
void BM_MergeSnifferTraces(benchmark::State& state) {
  workload::CellConfig cell;
  cell.seed = 13;
  cell.num_users = 10;
  cell.profile.mean_pps = 40.0;
  cell.duration_s = 6.0;
  cell.num_sniffers = 2;
  const auto result = workload::run_cell(cell);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::merge_sniffer_traces(result.sniffer_traces));
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(result.sniffer_traces[0].records.size() +
                                result.sniffer_traces[1].records.size()));
}
BENCHMARK(BM_MergeSnifferTraces)->Unit(benchmark::kMillisecond);

/// Chunked pcap parsing throughput (records/s out of the streaming reader).
void BM_PcapReaderStream(benchmark::State& state) {
  workload::CellConfig cell;
  cell.seed = 14;
  cell.num_users = 10;
  cell.profile.mean_pps = 40.0;
  cell.duration_s = 6.0;
  const auto result = workload::run_cell(cell);
  const std::string path = "bench_pcap_reader.pcap";
  trace::write_pcap(result.trace, path);
  std::uint64_t records = 0;
  for (auto _ : state) {
    trace::PcapReader reader(path);
    trace::CaptureRecord r;
    records = 0;
    while (reader.next(r)) ++records;
    benchmark::DoNotOptimize(records);
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records));
}
BENCHMARK(BM_PcapReaderStream)->Unit(benchmark::kMillisecond);

}  // namespace

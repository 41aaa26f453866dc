// The full paper pipeline, both ways, against each other:
//
//   2-sniffer cell sim -> per-sniffer pcap files
//     path A (in-memory):  read_pcap x2 -> merge_sniffer_traces -> analyze
//     path B (streaming):  PcapReader x2 -> estimate offsets ->
//                          MergingReader -> StreamingAnalyzer (drain sinks)
//
// Acceptance criterion: the two paths write byte-identical copies of every
// figure CSV that `wlan_analyze` writes (fig05_seconds, fig06..fig15) on the
// cell scenario.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/report.hpp"
#include "core/streaming.hpp"
#include "trace/merge.hpp"
#include "trace/pcap.hpp"
#include "trace/reader.hpp"
#include "workload/scenario.hpp"

namespace wlan {
namespace {

std::string bytes_of(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_figures(const core::FigureAccumulator& acc,
                   const std::string& prefix) {
  for (const auto& [file, fig] : core::paper_figures(acc)) {
    core::write_figure_csv(fig, prefix + file);
  }
}

TEST(StreamingPipeline, PcapMergeAnalyzeMatchesInMemoryByteForByte) {
  workload::CellConfig cell;
  cell.seed = 62;
  cell.num_users = 10;
  cell.profile.mean_pps = 30.0;
  cell.duration_s = 7.0;
  cell.warmup_s = 1.0;
  cell.profile.window = 2;
  cell.num_sniffers = 3;  // three sniffers, like the paper's deployment
  cell.sniffer_clock_skew_us = 900;
  const auto result = workload::run_cell(cell);
  ASSERT_EQ(result.sniffer_traces.size(), 3u);

  const std::string dir = ::testing::TempDir();
  std::vector<std::string> files;
  for (std::size_t j = 0; j < result.sniffer_traces.size(); ++j) {
    files.push_back(dir + "pipeline_sniffer" + std::to_string(j) + ".pcap");
    trace::write_pcap(result.sniffer_traces[j], files[j]);
  }

  // --- path A: in-memory ------------------------------------------------
  std::vector<trace::Trace> loaded;
  for (const auto& f : files) loaded.push_back(trace::read_pcap(f));
  const trace::MergeResult merged = trace::merge_sniffer_traces(loaded);
  // The pcap round trip must not perturb the clock recovery: both sniffers
  // heard identical frame-start instants, so recovery is exact.
  EXPECT_EQ(merged.offsets.offset_us[1], 900);
  EXPECT_EQ(merged.offsets.offset_us[2], 1800);
  const auto batch = core::TraceAnalyzer{}.analyze(merged.trace);
  core::FigureAccumulator batch_acc;
  batch_acc.add(batch);
  const std::string a = dir + "a_", b = dir + "b_";
  {
    core::SecondsCsvSink seconds(a + "fig05_seconds.csv");
    for (const core::SecondStats& s : batch.seconds) seconds.on_second(s);
  }
  write_figures(batch_acc, a);

  // --- path B: streaming, constant memory -------------------------------
  std::vector<std::unique_ptr<trace::TraceReader>> readers;
  std::vector<trace::TraceReader*> inputs;
  for (const auto& f : files) {
    readers.push_back(std::make_unique<trace::PcapReader>(f));
    inputs.push_back(readers.back().get());
  }
  const auto offsets = trace::estimate_clock_offsets(inputs);
  EXPECT_EQ(offsets.offset_us, merged.offsets.offset_us);
  // The estimator rewound the pcap readers it scanned.
  trace::MergingReader merger(inputs, offsets.offset_us);

  core::FigureAccumulator stream_acc;
  core::FigureStreamSink figures(stream_acc);
  {
    core::SecondsCsvSink seconds(b + "fig05_seconds.csv");
    core::TeeSink tee({&figures, &seconds});
    core::StreamingAnalyzer analyzer({}, &tee);
    trace::CaptureRecord r;
    while (merger.next(r)) analyzer.push(r);
    const auto drained = analyzer.finish();
    stream_acc.add_senders(drained.senders);
    EXPECT_EQ(drained.total_frames, batch.total_frames);
    EXPECT_EQ(drained.total_data, batch.total_data);
    EXPECT_EQ(drained.total_acks, batch.total_acks);
  }
  write_figures(stream_acc, b);

  // --- the acceptance criterion ----------------------------------------
  // Every CSV `wlan_analyze` writes: fig05_seconds from the analysis, the
  // paper's figure list from the accumulator.
  std::vector<std::string> files_written{"fig05_seconds.csv"};
  for (const auto& figure : core::paper_figures(batch_acc)) {
    files_written.push_back(figure.file);
  }
  for (const std::string& name : files_written) {
    const std::string batch_bytes = bytes_of(a + name);
    EXPECT_GT(batch_bytes.size(), 0u) << name;
    EXPECT_EQ(batch_bytes, bytes_of(b + name)) << name << " differs";
  }

  // The merge genuinely did cross-sniffer work on this capture.
  EXPECT_GT(merged.stats.duplicates_dropped, 100u);
  EXPECT_GT(merger.stats().duplicates_dropped, 100u);
  EXPECT_EQ(merger.stats().duplicates_dropped,
            merged.stats.duplicates_dropped);

  for (const auto& f : files) std::remove(f.c_str());
  for (const std::string& name : files_written) {
    std::remove((a + name).c_str());
    std::remove((b + name).c_str());
  }
}

/// Sim-side in-memory merge (run_cell with num_sniffers > 1) agrees with
/// re-merging its own raw captures: determinism of the whole pipeline.
TEST(StreamingPipeline, CellMergeIsReproducibleFromRawTraces) {
  workload::CellConfig cell;
  cell.seed = 77;
  cell.num_users = 8;
  cell.profile.mean_pps = 25.0;
  cell.duration_s = 5.0;
  cell.warmup_s = 1.0;
  cell.num_sniffers = 2;
  const auto once = workload::run_cell(cell);
  const auto again = trace::merge_sniffer_traces(once.sniffer_traces);

  // run_cell trims warmup from the merged trace; re-derive and compare.
  std::vector<trace::CaptureRecord> trimmed;
  const auto warmup_us = static_cast<std::int64_t>(cell.warmup_s * 1e6);
  for (const auto& r : again.trace.records) {
    if (r.time_us >= warmup_us) trimmed.push_back(r);
  }
  ASSERT_EQ(trimmed.size(), once.trace.records.size());
  for (std::size_t i = 0; i < trimmed.size(); ++i) {
    EXPECT_EQ(trimmed[i].time_us, once.trace.records[i].time_us) << i;
    EXPECT_EQ(trimmed[i].frame_id, once.trace.records[i].frame_id) << i;
  }
}

}  // namespace
}  // namespace wlan

#include "exp/session.hpp"

#include <exception>
#include <thread>
#include <utility>

#include "core/streaming.hpp"
#include "obs/trace_span.hpp"
#include "sim/sniffer.hpp"
#include "trace/merge.hpp"
#include "trace/reader.hpp"

namespace wlan::exp {

namespace {

/// Keeps every second for the manifest row.
class KeptSeconds final : public core::AnalysisSink {
 public:
  void on_second(const core::SecondStats& s) override { seconds.push_back(s); }
  void on_acceptance(const core::AcceptanceSample&, double) override {}

  std::vector<core::SecondStats> seconds;
};

SessionAnalysis analyze_captures(
    const std::vector<trace::TraceReader*>& captures, const std::string& name,
    core::FigureAccumulator& figures) {
  obs::Span span("session: merge " + name, "merge");
  std::vector<trace::ReplayOnceReader> once;
  once.reserve(captures.size());
  std::vector<trace::TraceReader*> inputs;
  inputs.reserve(captures.size());
  for (trace::TraceReader* capture : captures) {
    inputs.push_back(&once.emplace_back(*capture));
  }
  const trace::ClockOffsets offsets = trace::estimate_clock_offsets(inputs);
  // The estimator rewinds only what it read; an unread input has nothing
  // to replay and must not record what the merge reads.
  for (trace::ReplayOnceReader& r : once) {
    if (!r.rewound()) r.reset();
  }
  trace::MergingReader merger(std::move(inputs), offsets.offset_us);

  core::FigureStreamSink bins(figures);
  KeptSeconds kept;
  core::TeeSink tee({&bins, &kept});
  core::StreamingAnalyzer analyzer({}, &tee);
  trace::CaptureRecord r;
  while (merger.next(r)) analyzer.push(r);

  SessionAnalysis out;
  out.result = analyzer.finish();
  out.result.seconds = std::move(kept.seconds);
  figures.add_senders(out.result.senders);
  out.merged_records = merger.stats().emitted;
  return out;
}

}  // namespace

SessionAnalysis analyze_after(sim::Network& net, const std::string& name,
                              const std::function<void()>& simulate,
                              core::FigureAccumulator& figures) {
  simulate();
  std::vector<trace::VectorReader> readers;
  readers.reserve(net.sniffers().size());
  for (const std::unique_ptr<sim::Sniffer>& s : net.sniffers()) {
    readers.emplace_back(s->trace());
  }
  std::vector<trace::TraceReader*> captures;
  captures.reserve(readers.size());
  for (trace::VectorReader& r : readers) captures.push_back(&r);
  return analyze_captures(captures, name, figures);
}

SessionAnalysis analyze_alongside(sim::Network& net, const std::string& name,
                                  const std::function<void()>& simulate,
                                  core::FigureAccumulator& figures) {
  const std::vector<std::unique_ptr<sim::Sniffer>>& sniffers = net.sniffers();
  std::vector<trace::CaptureStream> streams(sniffers.size());
  std::vector<trace::TraceReader*> captures;
  captures.reserve(streams.size());
  for (trace::CaptureStream& s : streams) captures.push_back(&s);

  SessionAnalysis out;
  std::exception_ptr analysis_error;
  std::thread analysis([&] {
    try {
      out = analyze_captures(captures, name, figures);
    } catch (...) {
      analysis_error = std::current_exception();
      // Nothing reads the streams any more: let the sniffers drop batches.
      for (trace::CaptureStream& s : streams) s.abandon();
    }
  });
  for (std::size_t i = 0; i < sniffers.size(); ++i) {
    sniffers[i]->stream_to(streams[i]);
  }
  // Producers are idle once simulate() has returned or thrown: the shard
  // phases join before either.
  const auto close_and_join = [&] {
    for (const std::unique_ptr<sim::Sniffer>& s : sniffers) s->close_stream();
    analysis.join();
  };
  try {
    simulate();
  } catch (...) {
    close_and_join();
    throw;
  }
  close_and_join();
  if (analysis_error) std::rethrow_exception(analysis_error);
  return out;
}

}  // namespace wlan::exp

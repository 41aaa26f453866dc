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
  // Zero offsets are exactly what a clock-offset estimate would return: each
  // session sniffer watches its own channel, so no beacon key reaches two
  // inputs and the estimate finds 0 anchors; and Scenario::build sets no
  // sniffer clock offset, so the raw clocks already agree.
  trace::MergingReader merger(
      captures, std::vector<std::int64_t>(captures.size(), 0));

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
  std::vector<trace::TraceReader*> captures;
  for (const std::unique_ptr<sim::Sniffer>& s : net.sniffers()) {
    captures.push_back(&readers.emplace_back(s->trace()));
  }
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

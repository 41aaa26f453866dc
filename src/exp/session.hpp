// Session capture analysis: the paper's pipeline (§4.3) over one session's
// sniffer captures.  It runs either after the simulation, on the captures
// the sniffers kept, or alongside it, on a thread that reads each sniffer's
// records as they become final.  The session scenarios in registry.cpp run
// it alongside; keeping the captures is the oracle the tests hold the
// streamed path to.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "core/report.hpp"
#include "sim/network.hpp"

namespace wlan::exp {

/// One session's analysis.  The result holds the totals, the senders, the
/// unrecorded estimate and every second (the manifest row reads them all),
/// but no acceptance sample: those went only into the figures.
struct SessionAnalysis {
  core::AnalysisResult result;
  std::uint64_t merged_records = 0;  ///< records the merge emitted
};

/// Both functions run `simulate` (which runs `net`) on the calling thread
/// and the paper's pipeline over `net`'s sniffers, one capture each:
/// clock offsets from shared beacons, the deduplicated merge, the
/// per-second analysis.  Each capture is read once; the estimator's rewind
/// replays the prefix it read (trace::ReplayOnceReader).  Seconds and
/// acceptance samples are binned into `figures` as they finalize, the
/// senders after the last record.  `name` labels the trace span
/// ("session: merge <name>").  The two give equal results.

/// Runs the pipeline after `simulate`, on the captures the sniffers kept.
[[nodiscard]] SessionAnalysis analyze_after(
    sim::Network& net, const std::string& name,
    const std::function<void()>& simulate, core::FigureAccumulator& figures);

/// Runs the pipeline on a second thread while `simulate` runs, each sniffer
/// streaming its final records into a trace::CaptureStream instead of
/// keeping them.  Once `simulate` returns or throws, every sniffer hands
/// over the rest of its capture and closes its stream, and the thread is
/// joined.  Then the simulation's exception is rethrown, or else the
/// analysis thread's.  `figures` belongs to the thread until this returns.
[[nodiscard]] SessionAnalysis analyze_alongside(
    sim::Network& net, const std::string& name,
    const std::function<void()>& simulate, core::FigureAccumulator& figures);

}  // namespace wlan::exp

// Shared observability flag plumbing for the bench/example drivers:
// --trace-out (Chrome trace-event JSON of scheduler shard spans),
// --manifest-out (run manifest JSON next to the output CSVs),
// --progress (live shards-done/ETA line on stderr), --flight-out
// (sampled packet flight-recorder JSON plus the deadline-loss
// attribution report) and --series-out (windowed per-slot time-series
// CSV). One ObsSession per driver run owns the overlay lifecycle:
// enable the manifest collector, attach timeline/progress to the
// scheduler, hand out kernel captures, write the artifacts at the end.
// All overlays are observation-only -- the simulated results and CSVs
// are byte-identical with or without them.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/experiment.hpp"
#include "obs/capture.hpp"
#include "obs/timeline.hpp"
#include "util/flags.hpp"

namespace tcw::exec {
class SweepScheduler;
struct SchedulerReport;
}  // namespace tcw::exec

namespace tcw::bench {

struct ObsOptions {
  std::string trace_out;     ///< "" = no timeline export
  std::string manifest_out;  ///< "" = no run manifest
  bool progress = false;     ///< live stderr progress line
  std::string flight_out;    ///< "" = no flight/attribution report
  std::string series_out;    ///< "" = no per-slot series CSV
  double flight_sample_rate = 1.0;  ///< fraction of packets recorded
};

/// Register --trace-out / --manifest-out / --progress / --flight-out /
/// --series-out / --flight-sample-rate on `flags`.
void register_obs_flags(Flags& flags, ObsOptions& opts);

class ObsSession {
 public:
  /// `run_name` labels the manifest (suite/tool name). When a manifest
  /// was requested, the global collector and metrics registry are cleared
  /// so the written snapshot covers exactly this run.
  ObsSession(std::string run_name, const ObsOptions& opts);
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// Hook the timeline and progress overlays into `scheduler`. Call
  /// before the sweeps run; kernel_bench, which has no scheduler, skips
  /// this and gets a manifest only.
  void attach(exec::SweepScheduler& scheduler);

  /// Whether --flight-out or --series-out asked for kernel captures at
  /// all (drivers can skip capture bookkeeping entirely otherwise).
  bool wants_capture() const {
    return !opts_.flight_out.empty() || !opts_.series_out.empty();
  }

  /// Build the kernel capture for the run named `tag`: a flight-recorder
  /// segment (under --flight-out; sampling plane derived from
  /// `base_seed` on first use) and/or a fresh slot series (under
  /// --series-out). Returns a null capture when neither artifact was
  /// requested. The returned pointers live until the session dies.
  obs::KernelCapture make_capture(const std::string& tag,
                                  std::uint64_t base_seed);

  /// Register a sweep for the deadline-loss attribution report (written
  /// with --flight-out). Call after run_sweep; the rows are reduced in
  /// finish(), after the owning scheduler has run. Tags must be unique.
  void track_sweep(const std::string& tag, const net::ScheduledSweep& sweep);

  /// Write the requested artifacts (`report` may be null when the run had
  /// no scheduler report) and disable the collector. Returns 0 on
  /// success, 1 when an artifact could not be written.
  int finish(const exec::SchedulerReport* report);

 private:
  int write_flight_report();
  int write_series_csv();

  std::string run_;
  ObsOptions opts_;
  std::optional<obs::Timeline> timeline_;
  std::optional<obs::FlightRecorder> flight_;
  std::map<std::string, std::unique_ptr<obs::SlotSeries>> series_;
  std::map<std::string, net::ScheduledSweep> tracked_;
  unsigned threads_ = 0;
  bool attached_ = false;
  bool finished_ = false;
};

}  // namespace tcw::bench

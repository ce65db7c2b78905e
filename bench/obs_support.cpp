#include "obs_support.hpp"

#include <cstdio>
#include <utility>

#include "exec/sweep_scheduler.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/registry.hpp"

namespace tcw::bench {

void register_obs_flags(Flags& flags, ObsOptions& opts) {
  flags.add("trace-out", &opts.trace_out,
            "write a Chrome trace-event JSON of the scheduler's shard "
            "spans (open in Perfetto)");
  flags.add("manifest-out", &opts.manifest_out,
            "write a run manifest JSON (seeds, fingerprints, metrics "
            "snapshot)");
  flags.add("progress", &opts.progress,
            "render a live shards-done/ETA line on stderr");
  flags.add("flight-out", &opts.flight_out,
            "write the sampled packet flight-recorder JSON plus the "
            "deadline-loss attribution report");
  flags.add("series-out", &opts.series_out,
            "write the windowed per-slot time-series CSV (one capture "
            "per sweep/cell)");
  flags.add("flight-sample-rate", &opts.flight_sample_rate,
            "fraction of packets the flight recorder samples (pure-hash "
            "selection; 0 disables event capture but keeps the report)");
}

namespace {

// Cumulative kernel outcome counters appended to the --progress line:
// the run totals each kernel adds when a run ends, whatever its channel
// count (the per-channel `ch<N>` counters exist only for C > 1).
std::vector<obs::ProgressStat> progress_stats() {
  const std::string prefixes[] = {"net.aggregate.", "net.network."};
  struct Spec {
    const char* label;
    const char* outcome;
  };
  const Spec specs[] = {{"ok", "successes"},
                        {"coll", "collisions"},
                        {"drop", "sender_discards"}};
  std::vector<obs::ProgressStat> stats;
  stats.reserve(std::size(specs));
  for (const Spec& spec : specs) {
    obs::ProgressStat stat;
    stat.label = spec.label;
    for (const std::string& prefix : prefixes) {
      stat.counters.push_back(
          obs::Registry::global().counter(prefix + spec.outcome));
    }
    stats.push_back(std::move(stat));
  }
  return stats;
}

}  // namespace

ObsSession::ObsSession(std::string run_name, const ObsOptions& opts)
    : run_(std::move(run_name)), opts_(opts) {
  if (!opts_.manifest_out.empty()) {
    obs::ManifestCollector& collector = obs::ManifestCollector::global();
    collector.clear();
    collector.set_enabled(true);
    // Scope the registry snapshot to this run (counters are otherwise
    // cumulative over the process lifetime).
    obs::Registry::global().reset();
  }
}

ObsSession::~ObsSession() {
  if (!finished_ && !opts_.manifest_out.empty()) {
    obs::ManifestCollector::global().set_enabled(false);
  }
}

void ObsSession::attach(exec::SweepScheduler& scheduler) {
  attached_ = true;
  threads_ = scheduler.threads();
  if (!opts_.trace_out.empty()) {
    if (!timeline_.has_value()) timeline_.emplace();
    scheduler.set_timeline(&*timeline_);
  }
  if (opts_.progress) {
    scheduler.set_progress(true);
    scheduler.set_progress_stats(progress_stats());
  }
}

obs::KernelCapture ObsSession::make_capture(const std::string& tag,
                                            std::uint64_t base_seed) {
  obs::KernelCapture capture;
  if (!opts_.flight_out.empty()) {
    if (!flight_.has_value()) {
      obs::FlightRecorder::Options fopts;
      fopts.base_seed = base_seed;
      fopts.sample_rate = opts_.flight_sample_rate;
      flight_.emplace(fopts);
    }
    capture.flight = flight_->segment(tag);
  }
  if (!opts_.series_out.empty()) {
    std::unique_ptr<obs::SlotSeries>& slot = series_[tag];
    if (slot == nullptr) slot = std::make_unique<obs::SlotSeries>();
    capture.series = slot.get();
  }
  return capture;
}

void ObsSession::track_sweep(const std::string& tag,
                             const net::ScheduledSweep& sweep) {
  if (opts_.flight_out.empty()) return;
  tracked_.emplace(tag, sweep);
}

int ObsSession::write_flight_report() {
  // The report is written even when no run was captured (e.g. a driver
  // with nothing to sweep): an empty recorder still yields a valid --
  // and deterministic -- file, which is what the distributed-merge
  // byte-compare relies on.
  if (!flight_.has_value()) {
    flight_.emplace(obs::FlightRecorder::Options{
        0, opts_.flight_sample_rate, 65536});
  }
  std::string out = "{\"format\":\"tcw-flight-report-v1\",\"run\":";
  out += obs::json_quote(run_);
  out += ",\"flight\":";
  out += flight_->to_json();
  out += ",\"attribution\":[";
  char buf[256];
  bool first = true;
  for (const auto& [tag, sweep] : tracked_) {
    const std::string engine = sweep.engine_name();
    for (const net::SweepAttribution& row : sweep.attribution()) {
      if (!first) out += ',';
      first = false;
      out += "{\"sweep\":" + obs::json_quote(tag);
      out += ",\"engine\":" + obs::json_quote(engine);
      std::snprintf(buf, sizeof buf,
                    ",\"k\":%.17g,\"channel\":%u,\"admission_starved\":%llu,"
                    "\"collision_killed\":%llu,\"queue_expired\":%llu,"
                    "\"discards\":%llu}",
                    row.constraint, row.channel,
                    static_cast<unsigned long long>(row.admission_starved),
                    static_cast<unsigned long long>(row.collision_killed),
                    static_cast<unsigned long long>(row.queue_expired),
                    static_cast<unsigned long long>(row.discards()));
      out += buf;
      // Mirror each row as a BENCH_JSON record so tooling that scrapes
      // stdout (scripts/check_bench_json.py) sees the attribution too.
      std::printf("BENCH_JSON {\"sweep\":%s,\"engine\":%s%s\n",
                  obs::json_quote(tag).c_str(), obs::json_quote(engine).c_str(),
                  buf);
    }
  }
  out += "]}\n";
  std::FILE* f = std::fopen(opts_.flight_out.c_str(), "wb");
  if (f == nullptr) {
    obs::log(obs::LogLevel::kWarn, "%s: cannot write %s", run_.c_str(),
             opts_.flight_out.c_str());
    return 1;
  }
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  std::fclose(f);
  if (!ok) return 1;
  std::printf("flight: wrote attribution for %zu sweep(s) to %s\n",
              tracked_.size(), opts_.flight_out.c_str());
  return 0;
}

int ObsSession::write_series_csv() {
  std::string out = obs::SlotSeries::csv_header() + "\n";
  for (const auto& [tag, slot] : series_) {
    out += slot->to_csv_rows(tag);
  }
  std::FILE* f = std::fopen(opts_.series_out.c_str(), "wb");
  if (f == nullptr) {
    obs::log(obs::LogLevel::kWarn, "%s: cannot write %s", run_.c_str(),
             opts_.series_out.c_str());
    return 1;
  }
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  std::fclose(f);
  if (!ok) return 1;
  std::printf("series: wrote %zu capture(s) to %s\n", series_.size(),
              opts_.series_out.c_str());
  return 0;
}

int ObsSession::finish(const exec::SchedulerReport* report) {
  int rc = 0;
  if (!attached_ && (!opts_.trace_out.empty() || opts_.progress)) {
    obs::log(obs::LogLevel::kWarn,
             "%s: --trace-out/--progress need a scheduled run; only the "
             "manifest (if requested) is written",
             run_.c_str());
  }
  if (timeline_.has_value() && !series_.empty()) {
    // Per-slot counter tracks ride along in the Chrome trace, one pid
    // (counter process) per captured series.
    std::string extra;
    int pid = 1000;
    for (const auto& [tag, slot] : series_) {
      slot->append_counter_events(tag, pid++, &extra);
    }
    timeline_->set_extra_events(std::move(extra));
  }
  if (timeline_.has_value()) {
    if (timeline_->write_chrome_trace(opts_.trace_out)) {
      std::printf("trace: wrote %zu span(s) to %s\n",
                  timeline_->span_count(), opts_.trace_out.c_str());
    } else {
      rc = 1;
    }
  }
  if (!opts_.manifest_out.empty()) {
    obs::RunManifestInfo info;
    info.run = run_;
    info.threads = report != nullptr ? report->threads : threads_;
    if (report != nullptr) {
      info.scheduler_report_json = report->bench_json(run_);
    }
    if (obs::write_run_manifest(opts_.manifest_out, info)) {
      std::printf("manifest: wrote %s\n", opts_.manifest_out.c_str());
    } else {
      rc = 1;
    }
    obs::ManifestCollector::global().set_enabled(false);
  }
  if (!opts_.flight_out.empty() && write_flight_report() != 0) rc = 1;
  if (!opts_.series_out.empty() && write_series_csv() != 0) rc = 1;
  finished_ = true;
  return rc;
}

}  // namespace tcw::bench

// Measurement plumbing shared by every workload: clocks and process
// resource usage, order statistics, the span tracer behind the traced run,
// output checks, and small file helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/timeline.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point begin, Clock::time_point end);
double seconds_since(Clock::time_point begin);

/// User plus system CPU time of the whole process (getrusage).
double process_cpu_seconds();
/// Peak resident set size of the process in MiB (getrusage ru_maxrss).
double peak_rss_mb();
/// CPUs this process may run on (what `nproc` prints).
unsigned available_cpus();

double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

// ---------------------------------------------------------------- files

std::string read_file(const std::string& path, bool* ok = nullptr);
bool write_file(const std::string& path, const std::string& text);
std::vector<std::string> split_lines(const std::string& text);
/// Comma-split of one CSV line (the outputs here never quote fields).
std::vector<std::string> split_csv(const std::string& line);
/// Summed size of the regular files directly inside `dir`.
std::uint64_t directory_bytes(const std::string& dir);
std::string json_escape(const std::string& s);

// --------------------------------------------------------------- checks

/// Failed operations counted against attempted ones. One operation is one
/// output CSV row or one kernel cell.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log

  void record(bool ok, const std::string& what);
};

/// Row-by-row comparison of an output CSV against a reference CSV. Every
/// data row of the output is one operation. `columns` empty = the whole
/// row must be byte-equal; otherwise only the named columns must be.
void compare_csv(const std::string& label, const std::string& output,
                 const std::string& reference,
                 const std::vector<std::string>& columns, Outcome& out);

/// Remembers each output's bytes from the first job of a run and checks
/// later jobs (repetitions, traced replays) reproduce them exactly.
class RepeatCheck {
 public:
  void check(const std::string& label, const std::string& bytes,
             Outcome& out);

 private:
  std::map<std::string, std::string> first_;
};

// -------------------------------------------------------------- tracing

struct SpanRecord {
  std::string name;  // "<layer>.<part>", e.g. "smdp.build"
  Clock::time_point begin;
  Clock::time_point end;
};

/// Records spans around the calls the benchmark makes into each layer.
/// Spans are kept in memory; the scheduler's shard spans come from the
/// tcw::obs::Timeline handed to the scheduler.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::string name_;
    Clock::time_point begin_;
  };

  Tracer() : epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  Scope scope(std::string name) { return Scope(*this, std::move(name)); }
  tcw::obs::Timeline& timeline() { return timeline_; }
  const tcw::obs::Timeline& timeline() const { return timeline_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Spans plus shard spans as a Chrome trace-event document, loadable in
  /// Perfetto: tid 0 is the calling thread, tid w+1 scheduler worker w.
  std::string to_chrome_trace_json() const;

 private:
  Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  tcw::obs::Timeline timeline_;
};

/// Self time per span name on the calling thread's critical path. Spans
/// on the calling thread do not nest, so a span's self time is its
/// duration, except "exec.scheduler": the part of it during which at
/// least one shard ran is charged to "net.shards" (the scheduler waits on
/// the kernels), and only the rest to the scheduler.
struct Breakdown {
  std::map<std::string, double> self_s;  // by span name
  double covered_s = 0.0;                // summed span time
  double layer_self(const std::string& layer) const;
  /// The layer with the most self time, and its largest span name.
  std::string dominant_layer() const;
  std::string dominant_part() const;
};
Breakdown breakdown(const Tracer& tracer);

}  // namespace perfbench

// The benchmark's workloads. Each runs one user-visible job through the
// repository's public entry points (the end-to-end measurement) and can
// replay the same job as a sequence of calls into the layers, each inside
// a span (the traced measurement).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// The seed the repository's committed results were produced with. At
/// this seed every output is byte-compared against its reference; at any
/// other seed the checks fall back to properties that hold for all seeds.
inline constexpr std::uint64_t kDefaultSeed = 20261983;

/// Workloads whose entry point performs its own set-up time that set-up
/// by repeating the same constructor calls this many times per job and
/// taking the median (each probe lasts about a millisecond).
inline constexpr int kSetupProbes = 15;

struct Env {
  std::string root;  // checkout root: results/ and perfbench/reference/
  std::string work;  // scratch directory; the process runs inside it
  std::uint64_t seed = kDefaultSeed;
  unsigned threads = 1;
};

struct JobTimes {
  double setup_s = 0.0;  // set-up before the first unit of work
  double wall_s = 0.0;   // the job itself, set-up excluded
  double cpu_s = 0.0;    // user + system CPU of the process during the job
  /// Elapsed time of everything a traced replay of the job covers,
  /// including set-up interleaved with the work (the base of the tracing
  /// overhead).
  double elapsed_s = 0.0;
};

/// Per-layer work counters a replay reports (names as in BENCHMARK.json).
using Counters = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Untimed preparation, run in a separate process before the measured
  /// one so that it leaves no trace in the measured process's memory.
  virtual void prepare() {}
  /// One job through the public entry point.
  virtual JobTimes run_job() = 0;
  /// The same job replayed as calls into the layers, each in a span of
  /// `tracer`; adds the job's work counters to `counters`.
  virtual void replay(Tracer& tracer, Counters& counters) = 0;
  /// Check the outputs the last job or replay left in the work directory.
  virtual void check(Outcome& out) = 0;
  /// Write the reference outputs this workload has no committed CSV for
  /// (run once at the default seed, after one job).
  virtual void record_references() {}
  /// The span part ("layer" or "layer.part") expected to dominate the
  /// traced job on the reference host; empty when no claim is made.
  virtual std::string expected_dominant() const { return {}; }
};

std::unique_ptr<Workload> make_fig7_suite(const Env& env);
std::unique_ptr<Workload> make_study_suite(const Env& env, bool resume);
std::unique_ptr<Workload> make_kernel_grid(const Env& env);

/// Reference file for an output: results/<name> when the repository
/// commits one, else perfbench/reference/<name>.
std::string reference_path(const Env& env, const std::string& name);
std::string recorded_reference_path(const Env& env, const std::string& name);

}  // namespace perfbench

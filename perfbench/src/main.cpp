// tcwbench: runs one benchmark workload for a fixed time and prints one
// JSON result line. See perfbench/README.md.
//
//   tcwbench --workload W --seed N --seconds S --trace 0|1
//            --root DIR --work DIR --result FILE [--record FILE]
//   tcwbench --workload W --prepare ...   untimed preparation only
//   tcwbench --workload W --record-references ...
//
// --trace 0 measures the end-to-end metrics: whole jobs through the
// public entry points, repeated until --seconds have passed, reported as
// medians. --trace 1 alternates untraced jobs with traced replays and
// reports the per-layer metrics.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "obs/registry.hpp"
#include "workloads.hpp"

#ifndef TCWB_BUILD_TYPE
#define TCWB_BUILD_TYPE "unknown"
#endif
#ifndef TCWB_CXX_FLAGS
#define TCWB_CXX_FLAGS "unknown"
#endif
#ifndef TCWB_COMPILER
#define TCWB_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  std::string root;
  std::string work;
  std::string result;
  std::string record;
  bool prepare = false;
  bool record_references = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--prepare") {
      a.prepare = true;
      continue;
    }
    if (flag == "--record-references") {
      a.record_references = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--trace") a.trace = std::stoi(v);
    else if (flag == "--root") a.root = v;
    else if (flag == "--work") a.work = v;
    else if (flag == "--result") a.result = v;
    else if (flag == "--record") a.record = v;
    else return false;
  }
  return !a.workload.empty() && !a.root.empty() && !a.work.empty() &&
         (a.trace == 0 || a.trace == 1);
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Env& env) {
  if (name == "fig7_suite") return make_fig7_suite(env);
  if (name == "study_suite") return make_study_suite(env, false);
  if (name == "study_resume") return make_study_suite(env, true);
  if (name == "kernel_grid") return make_kernel_grid(env);
  return nullptr;
}

// A run starts jobs until --seconds have passed. It then tops up to a
// minimum number of jobs, but only within half as long again, so that a
// slow host lengthens a run by at most one job.
constexpr double kTopUpFactor = 1.5;

struct Metric {
  std::string unit;
  double value = 0.0;
};
using MetricMap = std::map<std::string, Metric>;

// The per-layer metrics, in BENCHMARK.json order; all are reported on
// every workload (0 where the workload does not reach the layer).
const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = [] {
    std::vector<std::pair<std::string, std::string>> u = {
        {"analysis.self_s", "s"},
        {"analysis.controlled_curve_s", "s"},
        {"analysis.fcfs_loss_s", "s"},
        {"analysis.lcfs_loss_s", "s"},
        {"analysis.k_points", "count"},
        {"analysis.fixpoint_iters", "count"},
        {"smdp.self_s", "s"},
        {"smdp.build_s", "s"},
        {"smdp.solve_s", "s"},
        {"smdp.state_actions", "count"},
        {"smdp.pi_rounds", "count"},
        {"smdp.linear_solves", "count"},
        {"smdp.mc_draws_computed", "count"},
        {"net.self_s", "s"}};
    for (const char* k : {"aggregate", "network", "event_skip", "fluid"}) {
      const std::string p = std::string("net.") + k;
      u.push_back({p + ".busy_s", "s"});
      u.push_back({p + ".slots", "count"});
      u.push_back({p + ".slots_per_s", "1/s"});
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"net.probe_slots", "count"},
        {"net.skipped_slots", "count"},
        {"net.skip_fraction", "ratio"},
        {"exec.self_s", "s"},
        {"exec.scheduler.wall_s", "s"},
        {"exec.scheduler.busy_s", "s"},
        {"exec.scheduler.shards", "count"},
        {"exec.scheduler.shards_stolen", "count"},
        {"exec.scheduler.shard_p50_s", "s"},
        {"exec.scheduler.shard_p99_s", "s"},
        {"exec.job_utilization", "ratio"},
        {"exec.shard_cache.open_s", "s"},
        {"exec.shard_cache.inserts", "count"},
        {"exec.shard_cache.hits", "count"},
        {"exec.shard_cache.loaded_records", "count"},
        {"exec.shard_cache.store_bytes", "bytes"},
        {"bench.self_s", "s"},
        {"bench.render_s", "s"},
        {"bench.csv_bytes", "bytes"},
        {"trace.job_wall_s", "s"},
        {"trace.coverage", "ratio"},
        {"trace.overhead_frac", "ratio"}};
    u.insert(u.end(), rest.begin(), rest.end());
    return u;
  }();
  return units;
}

// Counters that must repeat exactly between replays of the same job.
const std::set<std::string>& exact_counters() {
  static const std::set<std::string> names = {
      "analysis.k_points", "analysis.fixpoint_iters",
      "smdp.state_actions", "smdp.pi_rounds", "smdp.linear_solves",
      "smdp.mc_draws_computed", "net.aggregate.slots", "net.network.slots",
      "net.event_skip.slots", "net.fluid.slots", "net.probe_slots",
      "net.skipped_slots", "exec.scheduler.shards",
      "exec.shard_cache.inserts", "exec.shard_cache.hits",
      "exec.shard_cache.loaded_records", "exec.shard_cache.store_bytes",
      "bench.csv_bytes"};
  return names;
}

// The kernel a scheduler shard runs, from its sweep name. Loss-curve
// sweeps run the aggregate kernel. large_n's generic sweep lists its
// event-skip cells (three populations per load) before one fluid cell per
// load, so its last quarter of shards are fluid. priority_classes runs
// the priority-class simulator, none of the four kernels measured here.
std::string shard_kernel(const std::string& sweep, std::size_t shard,
                         std::size_t sweep_shards) {
  if (sweep.rfind("large_n/", 0) == 0) {
    return shard * 4 >= sweep_shards * 3 ? "fluid" : "event_skip";
  }
  if (sweep.rfind("priority_classes/", 0) == 0) return "";
  return "aggregate";
}

double registry_value(const tcw::obs::RegistrySnapshot& s, const char* name) {
  return static_cast<double>(s.counter(name));
}

// The per-layer metrics of one traced replay.
std::map<std::string, double> layer_metrics(const Tracer& tracer,
                                            const Counters& counters,
                                            double job_wall,
                                            unsigned threads) {
  std::map<std::string, double> m;
  for (const auto& [name, unit] : layer_metric_units()) m[name] = 0.0;
  for (const auto& [name, value] : counters) m[name] = value;

  const Breakdown b = breakdown(tracer);
  const auto self = [&b](const char* name) {
    const auto it = b.self_s.find(name);
    return it == b.self_s.end() ? 0.0 : it->second;
  };
  for (const char* layer : {"analysis", "smdp", "net", "exec", "bench"}) {
    m[std::string(layer) + ".self_s"] = b.layer_self(layer);
  }
  m["analysis.controlled_curve_s"] = self("analysis.controlled_curve");
  m["analysis.fcfs_loss_s"] = self("analysis.fcfs_loss");
  m["analysis.lcfs_loss_s"] = self("analysis.lcfs_loss");
  m["smdp.build_s"] = self("smdp.build");
  m["smdp.solve_s"] = self("smdp.solve");
  m["exec.shard_cache.open_s"] = self("exec.shard_cache.open");
  m["bench.render_s"] = self("bench.render");

  // Kernel busy time: direct kernel spans plus scheduler shards.
  std::map<std::string, double> busy;
  for (const SpanRecord& s : tracer.spans()) {
    for (const char* k : {"aggregate", "network", "event_skip", "fluid"}) {
      if (s.name == std::string("net.") + k) {
        busy[k] += seconds_between(s.begin, s.end);
      }
    }
  }
  const std::vector<tcw::obs::TimelineSpan> shards =
      tracer.timeline().snapshot();
  std::map<std::string, std::size_t> per_sweep;
  for (const auto& s : shards) ++per_sweep[s.sweep];
  std::vector<double> durations;
  double shard_busy = 0.0;
  double stolen = 0.0;
  for (const auto& s : shards) {
    const double d = seconds_between(s.begin, s.end);
    durations.push_back(d);
    shard_busy += d;
    if (s.stolen) stolen += 1.0;
    const std::string k = shard_kernel(s.sweep, s.shard, per_sweep[s.sweep]);
    if (!k.empty()) busy[k] += d;
  }
  for (const char* k : {"aggregate", "network", "event_skip", "fluid"}) {
    const std::string p = std::string("net.") + k;
    m[p + ".busy_s"] = busy[k];
    m[p + ".slots_per_s"] =
        busy[k] > 0.0 ? m[p + ".slots"] / busy[k] : 0.0;
  }
  m["net.skip_fraction"] = m["net.event_skip.slots"] > 0.0
                               ? m["net.skipped_slots"] /
                                     m["net.event_skip.slots"]
                               : 0.0;
  double scheduler_wall = 0.0;
  for (const SpanRecord& s : tracer.spans()) {
    if (s.name == "exec.scheduler") {
      scheduler_wall += seconds_between(s.begin, s.end);
    }
  }
  m["exec.scheduler.wall_s"] = scheduler_wall;
  m["exec.scheduler.busy_s"] = shard_busy;
  m["exec.scheduler.shards"] = static_cast<double>(shards.size());
  m["exec.scheduler.shards_stolen"] = stolen;
  m["exec.scheduler.shard_p50_s"] = quantile(durations, 0.50);
  m["exec.scheduler.shard_p99_s"] = quantile(durations, 0.99);
  m["exec.job_utilization"] =
      job_wall > 0.0 ? shard_busy / (threads * job_wall) : 0.0;
  m["trace.job_wall_s"] = job_wall;
  m["trace.coverage"] = job_wall > 0.0 ? b.covered_s / job_wall : 0.0;
  return m;
}

std::string provenance_json(const Args& a, const Env& env) {
  std::ostringstream out;
  out << "{\"build_type\":\"" << json_escape(TCWB_BUILD_TYPE)
      << "\",\"cxx_flags\":\"" << json_escape(TCWB_CXX_FLAGS)
      << "\",\"compiler\":\"" << json_escape(TCWB_COMPILER)
      << "\",\"nproc\":" << available_cpus() << ",\"threads\":"
      << env.threads << ",\"workload\":\"" << json_escape(a.workload)
      << "\",\"seed\":" << a.seed << ",\"seconds\":" << a.seconds
      << ",\"trace\":" << a.trace << "}";
  return out.str();
}

std::string metrics_json(const MetricMap& metrics) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}";
  return out.str();
}

std::string samples_json(const std::vector<double>& v) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v[i]);
    out << (i ? "," : "") << buf;
  }
  out << "]";
  return out.str();
}

int run(const Args& a) {
  Env env;
  env.root = std::filesystem::absolute(a.root).string();
  env.work = std::filesystem::absolute(a.work).string();
  env.seed = a.seed;
  env.threads = available_cpus();
  std::filesystem::create_directories(env.work);
  if (chdir(env.work.c_str()) != 0) {
    std::fprintf(stderr, "tcwbench: cannot enter %s\n", env.work.c_str());
    return 2;
  }
  std::unique_ptr<Workload> workload = make_workload(a.workload, env);
  if (workload == nullptr) {
    std::fprintf(stderr, "tcwbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  if (a.prepare) {
    workload->prepare();
    return 0;
  }
  if (a.record_references) {
    workload->prepare();
    workload->run_job();
    workload->record_references();
    Outcome out;
    workload->check(out);
    std::fprintf(stderr, "recorded references; check: %llu/%llu failed\n",
                 static_cast<unsigned long long>(out.failed),
                 static_cast<unsigned long long>(out.attempted));
    return out.failed == 0 ? 0 : 1;
  }

  Outcome outcome;
  MetricMap metrics;
  std::ostringstream detail;  // extra record fields
  const auto start = Clock::now();
  const auto keep_going = [&](std::size_t done, std::size_t minimum) {
    const double elapsed = seconds_since(start);
    return done == 0 || elapsed < a.seconds ||
           (done < minimum && elapsed < kTopUpFactor * a.seconds);
  };

  if (a.trace == 0) {
    std::vector<double> wall, cpu, setup;
    while (keep_going(wall.size(), 3)) {
      const JobTimes t = workload->run_job();
      wall.push_back(t.wall_s);
      cpu.push_back(t.cpu_s);
      setup.push_back(t.setup_s);
      workload->check(outcome);
    }
    metrics["wall_s"] = {"s", median(wall)};
    metrics["cpu_s"] = {"s", median(cpu)};
    metrics["setup_s"] = {"s", median(setup)};
    metrics["peak_rss_mb"] = {"MB", peak_rss_mb()};
    detail << ",\"samples\":{\"wall_s\":" << samples_json(wall)
           << ",\"cpu_s\":" << samples_json(cpu)
           << ",\"setup_s\":" << samples_json(setup) << "}";
  } else {
    std::vector<double> untraced_wall;
    std::vector<std::map<std::string, double>> replays;
    std::string trace_json;
    std::string dominant;
    std::string dominant_part;
    while (keep_going(replays.size(), 2)) {
      untraced_wall.push_back(workload->run_job().elapsed_s);
      workload->check(outcome);

      Tracer tracer;
      Counters counters;
      const auto reg0 = tcw::obs::Registry::global().snapshot();
      const auto t0 = Clock::now();
      workload->replay(tracer, counters);
      const double job_wall = seconds_since(t0);
      const auto reg1 = tcw::obs::Registry::global().snapshot();
      workload->check(outcome);
      const auto delta = [&](const char* name) {
        return registry_value(reg1, name) - registry_value(reg0, name);
      };
      counters["net.probe_slots"] = delta("net.aggregate.probe_slots") +
                                    delta("net.network.probe_slots");
      counters["exec.shard_cache.inserts"] = delta("exec.shard_cache.inserts");
      counters["exec.shard_cache.hits"] = delta("exec.shard_cache.hits");
      counters["exec.shard_cache.loaded_records"] =
          delta("exec.shard_cache.loaded_records");
      replays.push_back(
          layer_metrics(tracer, counters, job_wall, env.threads));
      const Breakdown b = breakdown(tracer);
      dominant = b.dominant_layer();
      dominant_part = b.dominant_part();
      trace_json = tracer.to_chrome_trace_json();
    }
    // Work counters repeat bit for bit between replays of the same job.
    for (std::size_t i = 1; i < replays.size(); ++i) {
      for (const std::string& name : exact_counters()) {
        outcome.record(replays[i].at(name) == replays[0].at(name),
                       "counter " + name + " differs between replays");
      }
    }
    for (const auto& [name, unit] : layer_metric_units()) {
      std::vector<double> values;
      for (const auto& r : replays) values.push_back(r.at(name));
      metrics[name] = {unit, exact_counters().count(name) != 0
                                 ? replays.front().at(name)
                                 : median(values)};
    }
    const double untraced = median(untraced_wall);
    metrics["trace.overhead_frac"].value =
        untraced > 0.0 ? metrics["trace.job_wall_s"].value / untraced - 1.0
                       : 0.0;
    const std::string trace_path = env.work + "/trace_" + a.workload + ".json";
    write_file(trace_path, trace_json);
    const std::string expected = workload->expected_dominant();
    const bool as_expected =
        expected.empty() || expected == dominant || expected == dominant_part;
    std::string verdict;
    if (!expected.empty()) {
      verdict = "; expected " + expected +
                (as_expected ? ", as expected" : " -- DIFFERS");
    }
    std::fprintf(stderr, "tcwbench: %s: dominant layer %s (largest part %s)%s\n",
                 a.workload.c_str(), dominant.c_str(), dominant_part.c_str(),
                 verdict.c_str());
    detail << ",\"dominant_layer\":\"" << dominant
           << "\",\"dominant_part\":\"" << dominant_part
           << "\",\"expected_dominant\":\"" << expected
           << "\",\"dominant_as_expected\":"
           << (as_expected ? "true" : "false") << ",\"trace_file\":\""
           << json_escape(trace_path) << "\",\"untraced_wall_s\":"
           << samples_json(untraced_wall);
  }

  for (const std::string& f : outcome.failures) {
    std::fprintf(stderr, "tcwbench: check failed: %s\n", f.c_str());
  }
  std::ostringstream line;
  line << "{\"correct\": " << (outcome.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << outcome.attempted
       << ", \"failed\": " << outcome.failed
       << ", \"metrics\": " << metrics_json(metrics) << "}";
  if (!a.record.empty()) {
    std::ostringstream record;
    record << "{\"provenance\":" << provenance_json(a, env)
           << ",\"result\":" << line.str() << detail.str() << "}\n";
    write_file(a.record, record.str());
  }
  if (!a.result.empty() && !write_file(a.result, line.str() + "\n")) {
    std::fprintf(stderr, "tcwbench: cannot write %s\n", a.result.c_str());
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: tcwbench --workload W --root DIR --work DIR "
                 "[--seed N] [--seconds S] [--trace 0|1] [--result FILE] "
                 "[--record FILE] [--prepare | --record-references]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tcwbench: %s\n", e.what());
    return 2;
  }
}

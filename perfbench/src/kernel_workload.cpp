// kernel_grid: the simulation kernels called directly, one cell after
// another on the calling thread, with no analytic or SMDP work in the
// timed part. Constructing a cell's simulator is its set-up; running it
// is the job. Cells are long enough (0.05 to 0.5 s each) to rise above
// timer noise.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <variant>

#include "analysis/loss_model.hpp"
#include "analysis/splitting.hpp"
#include "chan/arrivals.hpp"
#include "net/aggregate_sim.hpp"
#include "net/fluid_sim.hpp"
#include "net/network.hpp"
#include "util/csv.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

enum class Kind { Aggregate, Network, EventSkip, Fluid };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::Aggregate: return "aggregate";
    case Kind::Network: return "network";
    case Kind::EventSkip: return "event_skip";
    case Kind::Fluid: return "fluid";
  }
  return "?";
}

struct Cell {
  std::string name;
  Kind kind;
  std::size_t stations;  // 0 for the infinite-population kernels
  double rho;
  double k_over_m;
  std::uint32_t channels;
  double t_end;
};

constexpr double kMessageLength = 25.0;
constexpr double kWarmup = 5000.0;
// Run length of the fast-versus-reference cross-check cells, the
// default of kernel_bench --verify.
constexpr double kVerifyTEnd = 150000.0;

const std::vector<Cell>& grid() {
  static const std::vector<Cell> cells = {
      {"aggregate_rho25_km2", Kind::Aggregate, 0, 0.25, 2.0, 1, 3e6},
      {"aggregate_rho50_km2", Kind::Aggregate, 0, 0.50, 2.0, 1, 3e6},
      {"aggregate_rho75_km8", Kind::Aggregate, 0, 0.75, 8.0, 1, 6e6},
      {"network_n50_c1", Kind::Network, 50, 0.50, 3.0, 1, 2e6},
      {"network_n50_c2", Kind::Network, 50, 0.50, 3.0, 2, 2e6},
      {"network_n200_c1", Kind::Network, 200, 0.50, 3.0, 1, 4e5},
      {"network_n200_c2", Kind::Network, 200, 0.50, 3.0, 2, 4e5},
      {"event_skip_n1e4", Kind::EventSkip, 10000, 0.50, 3.0, 1, 4e6},
      {"event_skip_n1e5", Kind::EventSkip, 100000, 0.50, 3.0, 1, 4e6},
      {"event_skip_n1e6", Kind::EventSkip, 1000000, 0.50, 3.0, 1, 4e6},
      {"fluid_rho30_km2", Kind::Fluid, 0, 0.30, 2.0, 1, 1.5e8},
      {"fluid_rho90_km4", Kind::Fluid, 0, 0.90, 4.0, 1, 6e7},
  };
  return cells;
}

void append_stats(std::ostringstream& out, const char* name,
                  const tcw::sim::RunningStats& s) {
  char buf[160];
  std::snprintf(buf, sizeof buf, " %s:%llu/%a/%a/%a/%a", name,
                static_cast<unsigned long long>(s.count()), s.mean(),
                s.sum(), s.min(), s.max());
  out << buf;
}

// Every counter and accumulator of a run, doubles as exact hex floats:
// equal strings <=> bit-identical metrics (the kernel_bench fingerprint).
std::string fingerprint(const tcw::net::SimMetrics& m) {
  std::ostringstream out;
  out << "arr:" << m.arrivals << " del:" << m.delivered
      << " ls:" << m.lost_sender << " lr:" << m.lost_receiver
      << " cen:" << m.censored_lost << " pend:" << m.pending_at_end;
  append_stats(out, "wait", m.wait_all);
  append_stats(out, "waitd", m.wait_delivered);
  append_stats(out, "sched", m.scheduling);
  append_stats(out, "proc", m.process_slots);
  append_stats(out, "backlog", m.pseudo_backlog);
  char buf[240];
  std::snprintf(buf, sizeof buf, " q:%a/%a/%a use:%a/%a/%a/%a",
                m.wait_p50.value(), m.wait_p90.value(), m.wait_p99.value(),
                m.usage.idle_slots(), m.usage.collision_slots(),
                m.usage.payload_slots(), m.usage.success_overhead_slots());
  out << buf;
  return out.str();
}

std::string fingerprint(const tcw::net::FluidMetrics& m) {
  std::ostringstream out;
  out << "arr:" << m.arrivals << " acc:" << m.accepted << " lost:" << m.lost;
  append_stats(out, "vwait", m.virtual_wait);
  append_stats(out, "await", m.accepted_wait);
  char buf[64];
  std::snprintf(buf, sizeof buf, " idle:%a", m.idle_time);
  out << buf;
  return out.str();
}

/// One constructed simulator, ready to run once.
using Simulator = std::variant<std::unique_ptr<tcw::net::AggregateSimulator>,
                               std::unique_ptr<tcw::net::Network>,
                               std::unique_ptr<tcw::net::FluidSimulator>>;

struct CellResult {
  std::string fingerprint;
  std::uint64_t skipped_slots = 0;
  std::vector<tcw::obs::ChannelTally> tallies;
};

tcw::core::ControlPolicy cell_policy(const Cell& c) {
  const double lambda = c.rho / kMessageLength;
  return tcw::core::ControlPolicy::optimal(
      c.k_over_m * kMessageLength,
      tcw::analysis::optimal_window_load() / lambda);
}

// `batched_per_slot` steps an event-skip cell slot by slot instead (its
// bit-identity reference); `reference` selects the retained reference
// kernel of the aggregate and network cells.
Simulator construct(const Cell& c, std::uint64_t seed, double t_end,
                    bool reference = false, bool batched_per_slot = false) {
  const double lambda = c.rho / kMessageLength;
  switch (c.kind) {
    case Kind::Aggregate: {
      tcw::net::AggregateConfig cfg;
      cfg.policy = cell_policy(c);
      cfg.mac.channel.channels = c.channels;
      cfg.message_length = kMessageLength;
      cfg.t_end = t_end;
      cfg.warmup = kWarmup;
      cfg.seed = seed;
      cfg.reference_kernel = reference;
      return std::make_unique<tcw::net::AggregateSimulator>(
          cfg, std::make_unique<tcw::chan::PoissonProcess>(lambda));
    }
    case Kind::Network:
    case Kind::EventSkip: {
      tcw::net::NetworkConfig cfg;
      cfg.policy = cell_policy(c);
      cfg.mac.channel.channels = c.channels;
      cfg.message_length = kMessageLength;
      cfg.t_end = t_end;
      cfg.warmup = kWarmup;
      cfg.seed = seed;
      cfg.consistency_check_every = 1024;
      cfg.reference_kernel = reference;
      if (!reference) cfg.shadow_replicas = 2;
      if (c.kind == Kind::Network) {
        return std::make_unique<tcw::net::Network>(
            tcw::net::Network::homogeneous_poisson(cfg, c.stations, lambda));
      }
      cfg.event_skip = !batched_per_slot;
      return std::make_unique<tcw::net::Network>(
          tcw::net::Network::homogeneous_poisson_batched(cfg, c.stations,
                                                         lambda));
    }
    case Kind::Fluid: {
      tcw::analysis::ProtocolModelConfig mc;
      mc.offered_load = c.rho;
      mc.message_length = kMessageLength;
      tcw::net::FluidConfig cfg =
          tcw::net::protocol_fluid_config(mc, c.k_over_m * kMessageLength);
      cfg.t_end = t_end;
      cfg.warmup = kWarmup;
      cfg.seed = seed;
      return std::make_unique<tcw::net::FluidSimulator>(cfg);
    }
  }
  return {};
}

CellResult run(Simulator& sim) {
  CellResult r;
  if (auto* agg = std::get_if<0>(&sim)) {
    r.fingerprint = fingerprint((*agg)->run());
    r.tallies = (*agg)->channel_tallies();
  } else if (auto* net = std::get_if<1>(&sim)) {
    r.fingerprint = fingerprint((*net)->run());
    r.skipped_slots = (*net)->skipped_slots();
    r.tallies = (*net)->channel_tallies();
    if (!(*net)->stations_consistent()) r.fingerprint += " INCONSISTENT";
  } else {
    r.fingerprint = fingerprint(std::get<2>(sim)->run());
  }
  return r;
}

class KernelGrid final : public Workload {
 public:
  explicit KernelGrid(const Env& env) : env_(env) {}

  JobTimes run_job() override {
    JobTimes t;
    results_.clear();
    const auto start = Clock::now();
    for (const Cell& c : grid()) {
      const auto s0 = Clock::now();
      Simulator sim = construct(c, env_.seed, c.t_end);
      t.setup_s += seconds_since(s0);
      const double cpu0 = process_cpu_seconds();
      const auto t0 = Clock::now();
      results_.push_back(run(sim));
      t.wall_s += seconds_since(t0);
      t.cpu_s += process_cpu_seconds() - cpu0;
    }
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    write_output();
    t.wall_s += seconds_since(t0);
    t.cpu_s += process_cpu_seconds() - cpu0;
    t.elapsed_s = seconds_since(start);
    return t;
  }

  void replay(Tracer& tracer, Counters& counters) override {
    results_.clear();
    for (const Cell& c : grid()) {
      std::optional<Simulator> sim;
      {
        // The fluid kernel's service law comes from the analytic fixpoint.
        auto s = tracer.scope(c.kind == Kind::Fluid ? "analysis.fluid_config"
                                                    : "net.construct");
        sim.emplace(construct(c, env_.seed, c.t_end));
      }
      {
        auto s = tracer.scope(std::string("net.") + kind_name(c.kind));
        results_.push_back(run(*sim));
      }
      counters[std::string("net.") + kind_name(c.kind) + ".slots"] += c.t_end;
      counters["net.skipped_slots"] +=
          static_cast<double>(results_.back().skipped_slots);
      auto s = tracer.scope("net.teardown");
      sim.reset();
    }
    auto s = tracer.scope("bench.render");
    write_output();
    counters["bench.csv_bytes"] +=
        static_cast<double>(read_file(kOutput).size());
  }

  void check(Outcome& out) override {
    const std::string bytes = read_file(kOutput);
    repeat_.check(kOutput, bytes, out);
    if (env_.seed == kDefaultSeed) {
      compare_csv(kOutput, bytes, read_file(reference_path(env_, kOutput)),
                  {}, out);
    }
    // Every deadline discard is attributed to exactly one category.
    for (std::size_t i = 0; i < results_.size(); ++i) {
      bool sums = true;
      for (const auto& t : results_[i].tallies) {
        sums = sums && t.admission_starved + t.collision_killed +
                               t.queue_expired ==
                           t.sender_discards;
      }
      out.record(sums, grid()[i].name + ": attribution categories do not "
                                        "sum to discards");
    }
    if (!verified_) {
      verified_ = true;
      verify_against_reference_kernels(out);
    }
  }

  void record_references() override {
    std::filesystem::copy_file(
        kOutput, recorded_reference_path(env_, kOutput),
        std::filesystem::copy_options::overwrite_existing);
  }

  std::string expected_dominant() const override { return "net"; }

 private:
  static constexpr const char* kOutput = "kernel_grid.csv";

  void write_output() const {
    tcw::Table table({"cell", "kernel", "t_end", "fingerprint"});
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const Cell& c = grid()[i];
      char t_end[32];
      std::snprintf(t_end, sizeof t_end, "%.0f", c.t_end);
      table.add_row({c.name, kind_name(c.kind), t_end,
                     results_[i].fingerprint});
    }
    table.save_csv(kOutput);
  }

  // As kernel_bench --verify does, once per run at the verify length: the
  // fast aggregate and network kernels against their reference kernels,
  // and the event-skip stepper against per-slot stepping of the same
  // batched arrival stream (at the smallest population, where per-slot
  // stepping is affordable).
  void verify_against_reference_kernels(Outcome& out) const {
    bool event_skip_checked = false;
    for (const Cell& c : grid()) {
      if (c.kind == Kind::Fluid) continue;
      if (c.kind == Kind::EventSkip) {
        if (event_skip_checked) continue;
        event_skip_checked = true;
      }
      Simulator fast = construct(c, env_.seed, kVerifyTEnd);
      Simulator ref = c.kind == Kind::EventSkip
                          ? construct(c, env_.seed, kVerifyTEnd, false, true)
                          : construct(c, env_.seed, kVerifyTEnd, true);
      out.record(run(fast).fingerprint == run(ref).fingerprint,
                 c.name + ": fast and reference kernels differ");
    }
  }

  Env env_;
  std::vector<CellResult> results_;
  RepeatCheck repeat_;
  bool verified_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_kernel_grid(const Env& env) {
  return std::make_unique<KernelGrid>(env);
}

}  // namespace perfbench

#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

namespace perfbench {

double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

double seconds_since(Clock::time_point begin) {
  return seconds_between(begin, Clock::now());
}

namespace {
double timeval_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}
}  // namespace

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return timeval_seconds(usage.ru_utime) + timeval_seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// ---------------------------------------------------------------- files

std::string read_file(const std::string& path, bool* ok) {
  std::ifstream in(path, std::ios::binary);
  if (ok != nullptr) *ok = static_cast<bool>(in);
  if (!in) return {};
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream in(line);
  while (std::getline(in, cell, ',')) cells.push_back(cell);
  if (!line.empty() && line.back() == ',') cells.emplace_back();
  return cells;
}

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

// --------------------------------------------------------------- checks

void Outcome::record(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

void compare_csv(const std::string& label, const std::string& output,
                 const std::string& reference,
                 const std::vector<std::string>& columns, Outcome& out) {
  const std::vector<std::string> got = split_lines(output);
  const std::vector<std::string> want = split_lines(reference);
  if (got.empty() || want.empty() || got[0] != want[0]) {
    out.record(false, label + ": missing output or header differs");
    return;
  }
  std::vector<std::size_t> picked;
  const std::vector<std::string> header = split_csv(want[0]);
  for (const std::string& name : columns) {
    const auto it = std::find(header.begin(), header.end(), name);
    if (it == header.end()) {
      out.record(false, label + ": reference lacks column " + name);
      return;
    }
    picked.push_back(static_cast<std::size_t>(it - header.begin()));
  }
  const std::size_t rows = std::max(got.size(), want.size()) - 1;
  for (std::size_t r = 1; r <= rows; ++r) {
    const std::string row_label = label + " row " + std::to_string(r);
    if (r >= got.size() || r >= want.size()) {
      out.record(false, row_label + ": row count differs");
      continue;
    }
    if (picked.empty()) {
      out.record(got[r] == want[r], row_label + ": bytes differ");
      continue;
    }
    const std::vector<std::string> g = split_csv(got[r]);
    const std::vector<std::string> w = split_csv(want[r]);
    bool ok = g.size() == w.size();
    for (const std::size_t c : picked) ok = ok && c < g.size() && g[c] == w[c];
    out.record(ok, row_label + ": checked columns differ");
  }
}

void RepeatCheck::check(const std::string& label, const std::string& bytes,
                        Outcome& out) {
  const auto [it, first] = first_.emplace(label, bytes);
  if (first) return;
  // Compared line by line so each row stays one operation.
  const std::vector<std::string> a = split_lines(it->second);
  const std::vector<std::string> b = split_lines(bytes);
  const std::size_t rows = std::max(a.size(), b.size());
  for (std::size_t r = 0; r < rows; ++r) {
    out.record(r < a.size() && r < b.size() && a[r] == b[r],
               label + " line " + std::to_string(r + 1) +
                   ": differs from the run's first job");
  }
}

// -------------------------------------------------------------- tracing

Tracer::Scope::Scope(Tracer& tracer, std::string name)
    : tracer_(tracer), name_(std::move(name)), begin_(Clock::now()) {}

Tracer::Scope::~Scope() {
  tracer_.spans_.push_back({std::move(name_), begin_, Clock::now()});
}

std::string Tracer::to_chrome_trace_json() const {
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  };
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  out << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"job\"}}";
  char buf[160];
  for (const SpanRecord& s : spans_) {
    const std::string layer = s.name.substr(0, s.name.find('.'));
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                  "\"tid\":0}", us(s.begin), us(s.end) - us(s.begin));
    out << ",{\"ph\":\"X\",\"name\":\"" << json_escape(s.name)
        << "\",\"cat\":\"" << json_escape(layer) << "\"" << buf;
  }
  for (const tcw::obs::TimelineSpan& s : timeline_.snapshot()) {
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                  "\"tid\":%u,", us(s.begin), us(s.end) - us(s.begin),
                  s.worker + 1);
    out << ",{\"ph\":\"X\",\"name\":\"" << json_escape(s.sweep)
        << "\",\"cat\":\"net.shard\"" << buf << "\"args\":{\"shard\":"
        << s.shard << ",\"stolen\":" << (s.stolen ? "true" : "false")
        << "}}";
  }
  out << "]}\n";
  return out.str();
}

namespace {

// Length of the union of [begin, end) intervals clipped to [lo, hi).
double covered_seconds(std::vector<std::pair<Clock::time_point,
                                             Clock::time_point>> intervals,
                       Clock::time_point lo, Clock::time_point hi) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  Clock::time_point cursor = lo;
  for (auto [b, e] : intervals) {
    b = std::max(b, cursor);
    e = std::min(e, hi);
    if (e <= b) continue;
    total += seconds_between(b, e);
    cursor = e;
  }
  return total;
}

}  // namespace

Breakdown breakdown(const Tracer& tracer) {
  std::vector<std::pair<Clock::time_point, Clock::time_point>> shards;
  for (const tcw::obs::TimelineSpan& s : tracer.timeline().snapshot()) {
    shards.emplace_back(s.begin, s.end);
  }
  Breakdown b;
  for (const SpanRecord& s : tracer.spans()) {
    const double d = seconds_between(s.begin, s.end);
    b.covered_s += d;
    if (s.name == "exec.scheduler") {
      const double net = covered_seconds(shards, s.begin, s.end);
      b.self_s["net.shards"] += net;
      b.self_s[s.name] += d - net;
    } else {
      b.self_s[s.name] += d;
    }
  }
  return b;
}

double Breakdown::layer_self(const std::string& layer) const {
  double total = 0.0;
  for (const auto& [name, s] : self_s) {
    if (name.compare(0, layer.size() + 1, layer + ".") == 0) total += s;
  }
  return total;
}

std::string Breakdown::dominant_layer() const {
  std::string best;
  double best_s = -1.0;
  for (const char* layer : {"analysis", "smdp", "net", "exec", "bench"}) {
    const double s = layer_self(layer);
    if (s > best_s) {
      best = layer;
      best_s = s;
    }
  }
  return best;
}

std::string Breakdown::dominant_part() const {
  const std::string layer = dominant_layer();
  std::string best;
  double best_s = -1.0;
  for (const auto& [name, s] : self_s) {
    if (name.compare(0, layer.size() + 1, layer + ".") == 0 && s > best_s) {
      best = name;
      best_s = s;
    }
  }
  return best;
}

}  // namespace perfbench

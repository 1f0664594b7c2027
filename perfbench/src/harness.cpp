#include "harness.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Innermost open span of the calling thread (0 = none).
thread_local std::uint64_t current_span = 0;

/// `text` as a quoted JSON string.
std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

double Samples::percentile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (rank - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double Samples::sliced_percentile(double q) const {
  constexpr std::size_t kMaxSlices = 5;
  constexpr std::size_t kMinSliceSamples = 1000;
  const std::size_t slices =
      std::clamp<std::size_t>(values_.size() / kMinSliceSamples, 1, kMaxSlices);
  std::vector<double> figures;
  for (std::size_t k = 0; k < slices; ++k) {
    Samples slice;
    slice.values_.assign(values_.begin() + static_cast<std::ptrdiff_t>(
                                               values_.size() * k / slices),
                         values_.begin() + static_cast<std::ptrdiff_t>(
                                               values_.size() * (k + 1) / slices));
    figures.push_back(slice.percentile(q));
  }
  return median(figures);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double error_ratio(std::uint64_t attempted, std::uint64_t failed) {
  constexpr double kFloor = 1e-9;
  return static_cast<double>(failed) /
             static_cast<double>(std::max<std::uint64_t>(attempted, 1)) +
         kFloor;
}

std::size_t cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(CPU_COUNT(&set), 1));
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (metrics_.find(name) == metrics_.end()) order_.push_back(name);
  metrics_[name] = Metric{value, unit};
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, json_string(value));
}

void Report::info(const std::string& key, double value) {
  info_.emplace_back(key, json_number(value));
}

void Report::fail_gate(const std::string& why) {
  std::fprintf(stderr, "perfbench: correctness gate failed: %s\n", why.c_str());
  gate_failures_.push_back(why);
}

std::string Report::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const Metric& m = metrics_.at(order_[i]);
    if (i > 0) out += ", ";
    out += json_string(order_[i]);
    out += ": {\"value\": ";
    out += json_number(m.value);
    out += ", \"unit\": ";
    out += json_string(m.unit);
    out += '}';
  }
  out += "}, \"info\": {";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(info_[i].first);
    out += ": ";
    out += info_[i].second;
  }
  out += "}, \"gate\": [";
  for (std::size_t i = 0; i < gate_failures_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(gate_failures_[i]);
  }
  out += "]}";
  return out;
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* name)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  span_.id = recorder_->next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = current_span;
  span_.name = name;
  current_span = span_.id;
  span_.start_ns = now_ns();
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  span_.end_ns = now_ns();
  current_span = span_.parent;
  recorder_->record(span_);
}

void SpanRecorder::record(const Span& span) {
  const megads::MutexLock lock(mu_);
  spans_.push_back(span);
}

std::size_t SpanRecorder::size() const {
  const megads::MutexLock lock(mu_);
  return spans_.size();
}

void SpanRecorder::clear() {
  const megads::MutexLock lock(mu_);
  spans_.clear();
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::totals() const {
  const megads::MutexLock lock(mu_);
  std::unordered_map<std::uint64_t, double> child_ns;
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      child_ns[span.parent] += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, Totals> totals;
  for (const Span& span : spans_) {
    const double ns = static_cast<double>(span.end_ns - span.start_ns);
    const auto nested = child_ns.find(span.id);
    Totals& t = totals[span.name];
    ++t.count;
    t.total_us += ns / 1e3;
    t.self_us += (ns - (nested == child_ns.end() ? 0.0 : nested->second)) / 1e3;
  }
  return totals;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const megads::MutexLock lock(mu_);
  for (const Span& span : spans_) {
    out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

std::string range_seconds(std::int64_t begin_s, std::int64_t end_s) {
  return std::to_string(begin_s) + "s.." + std::to_string(end_s) + "s";
}

}  // namespace perfbench

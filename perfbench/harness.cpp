#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/metrics.hpp"

namespace perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

// Every digit a double carries; non-finite values are not JSON numbers.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::meta(const std::string& key, const std::string& value) {
  meta_[key] = json_string(value);
}

void Report::meta(const std::string& key, double value) {
  meta_[key] = json_number(value);
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
  ++attempted_;
  if (!ok) ++failed_;
}

void Report::ops(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

double Report::value(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? std::nan("") : it->second.value;
}

bool Report::correct() const {
  if (failed_ != 0) return false;
  for (const auto& c : checks_) {
    if (!c.ok) return false;
  }
  for (const auto& [name, m] : metrics_) {
    if (!std::isfinite(m.value)) return false;
  }
  return true;
}

std::string Report::to_json(const std::string& workload) const {
  std::ostringstream os;
  os << "{\"workload\": " << json_string(workload)
     << ", \"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    os << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
       << json_number(m.value) << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  os << "}, \"checks\": [";
  first = true;
  for (const auto& c : checks_) {
    os << (first ? "" : ", ") << "{\"name\": " << json_string(c.name)
       << ", \"ok\": " << (c.ok ? "true" : "false")
       << ", \"detail\": " << json_string(c.detail) << "}";
    first = false;
  }
  os << "], \"meta\": {";
  first = true;
  for (const auto& [key, value] : meta_) {
    os << (first ? "" : ", ") << json_string(key) << ": " << value;
    first = false;
  }
  os << "}}";
  return os.str();
}

double LayerClock::us(const std::string& name) const {
  const auto it = us_.find(name);
  return it == us_.end() ? 0.0 : it->second;
}

double LayerClock::total_us() const {
  double total = 0.0;
  for (const auto& [name, v] : us_) total += v;
  return total;
}

double SpanTotals::get_us(const std::string& name) const {
  const auto it = us.find(name);
  return it == us.end() ? 0.0 : it->second;
}

void SpanTotals::add(const SpanTotals& other) {
  for (const auto& [name, v] : other.us) us[name] += v;
  dropped += other.dropped;
}

SpanTotals collect_spans() {
  SpanTotals t;
  for (const elrec::obs::ThreadTraceBuffer* buf :
       elrec::obs::detail::all_buffers()) {
    buf->for_each([&](const elrec::obs::TraceEvent& e) {
      t.us[e.name] += static_cast<double>(e.dur_ns) * 1e-3;
    });
    t.dropped += buf->dropped();
  }
  return t;
}

CounterValues counter_values() {
  CounterValues out;
  for (const auto& [name, v] :
       elrec::obs::MetricsRegistry::global().snapshot().counters) {
    out[name] = v;
  }
  return out;
}

std::uint64_t counter_delta(const CounterValues& before,
                            const CounterValues& after,
                            const std::string& name) {
  const auto a = after.find(name);
  if (a == after.end()) return 0;
  const auto b = before.find(name);
  return a->second - (b == before.end() ? 0 : b->second);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double relative_iqr(const std::vector<double>& v) {
  const double med = median(v);
  if (med == 0.0) return 0.0;
  return (quantile(v, 0.75) - quantile(v, 0.25)) / med;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

}  // namespace perfbench

#include "obs/registry.h"

#include <algorithm>
#include <cmath>

#include "common/json.h"

namespace dqme::obs {

// Exact doubling walk rather than std::log2: boundary samples (v == lo*2^b)
// must land in bucket b on every libm, and B is a few dozen at most.
size_t Histogram::log_bucket(double v) const {
  size_t b = 0;
  double upper = lo_ * 2;
  while (b < counts_.size() && v >= upper) {
    upper *= 2;
    ++b;
  }
  return b;
}

double Histogram::bucket_lower(size_t b) const {
  if (log_) return std::ldexp(lo_, static_cast<int>(b));
  return lo_ + static_cast<double>(b) * width_;
}

double Histogram::percentile(double p) const {
  DQME_CHECK(0 <= p && p <= 1);
  if (count_ == 0) return 0;
  const auto rank = static_cast<uint64_t>(p * static_cast<double>(count_ - 1));
  uint64_t seen = underflow_;
  if (rank < seen) return lo_;
  for (size_t b = 0; b < counts_.size(); ++b) {
    seen += counts_[b];
    if (rank < seen) return (bucket_lower(b) + bucket_upper(b)) / 2;
  }
  return bucket_lower(counts_.size());
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0 && counts_.empty()) {
    *this = other;
    return;
  }
  DQME_CHECK_MSG(lo_ == other.lo_ && width_ == other.width_ &&
                     log_ == other.log_ &&
                     counts_.size() == other.counts_.size(),
                 "merging histograms with different bucket specs");
  for (size_t b = 0; b < counts_.size(); ++b) counts_[b] += other.counts_[b];
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  count_ += other.count_;
  sum_ += other.sum_;
}

uint64_t& Registry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), 0).first;
  return it->second;
}

double& Registry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) it = gauges_.emplace(std::string(name), 0.0).first;
  return it->second;
}

Histogram& Registry::histogram(std::string_view name, double lo, double width,
                               size_t buckets) {
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(std::string(name), Histogram(lo, width, buckets))
             .first;
  DQME_CHECK_MSG(it->second.lo() == lo && it->second.width() == width &&
                     !it->second.is_log() &&
                     it->second.buckets().size() == buckets,
                 "histogram '" << name << "' re-declared with another spec");
  return it->second;
}

Histogram& Registry::log_histogram(std::string_view name, double lo,
                                   size_t buckets) {
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(std::string(name), Histogram::log2(lo, buckets))
             .first;
  DQME_CHECK_MSG(it->second.lo() == lo && it->second.is_log() &&
                     it->second.buckets().size() == buckets,
                 "histogram '" << name << "' re-declared with another spec");
  return it->second;
}

const uint64_t* Registry::find_counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const double* Registry::find_gauge(std::string_view name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* Registry::find_histogram(std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void Registry::merge(const Registry& other) {
  for (const auto& [name, v] : other.counters_) counter(name) += v;
  for (const auto& [name, v] : other.gauges_) {
    double& g = gauge(name);
    g = std::max(g, v);
  }
  for (const auto& [name, h] : other.histograms_) {
    auto it = histograms_.find(name);
    if (it == histograms_.end())
      histograms_.emplace(name, h);
    else
      it->second.merge(h);
  }
}

void Registry::write_json(std::ostream& os) const {
  os << "{\"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters_) {
    os << (first ? "" : ", ");
    os << json_string(name);
    os << ": " << v;
    first = false;
  }
  os << "}, \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges_) {
    os << (first ? "" : ", ");
    os << json_string(name);
    os << ": " << v;
    first = false;
  }
  os << "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "" : ", ");
    os << json_string(name);
    os << ": {\"kind\": \"" << (h.is_log() ? "log2" : "linear")
       << "\", \"lo\": " << h.lo() << ", \"width\": " << h.width()
       << ", \"count\": " << h.count() << ", \"sum\": " << h.sum()
       << ", \"p50\": " << h.p50() << ", \"p95\": " << h.p95()
       << ", \"p99\": " << h.p99() << ", \"p999\": " << h.p999()
       << ", \"underflow\": " << h.underflow()
       << ", \"overflow\": " << h.overflow() << ", \"buckets\": [";
    for (size_t b = 0; b < h.buckets().size(); ++b)
      os << (b ? ", " : "") << h.buckets()[b];
    os << "]}";
    first = false;
  }
  os << "}}";
}

}  // namespace dqme::obs

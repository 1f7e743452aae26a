#include "src/common/stats.h"

#include <bit>
#include <cmath>

namespace nearpm {

void RunningStat::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram() = default;

Histogram::Histogram(const Histogram& other) { *this = other; }

Histogram& Histogram::operator=(const Histogram& other) {
  // Copies are snapshots: relaxed loads of a (possibly concurrently written)
  // source, plain stores into the fresh destination.
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[i].store(other.buckets_[i].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  }
  total_.store(other.total_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  sum_.store(other.sum_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
  return *this;
}

int Histogram::BucketOf(std::uint64_t value) {
  const int bucket = value == 0 ? 0 : std::bit_width(value);
  return bucket >= kBuckets ? kBuckets - 1 : bucket;
}

Histogram Histogram::FromBuckets(
    std::span<const std::uint64_t, kBuckets> counts, std::uint64_t sum) {
  Histogram h;
  std::uint64_t total = 0;
  for (int i = 0; i < kBuckets; ++i) {
    h.buckets_[i].store(counts[i], std::memory_order_relaxed);
    total += counts[i];
  }
  h.total_.store(total, std::memory_order_relaxed);
  h.sum_.store(sum, std::memory_order_relaxed);
  return h;
}

void Histogram::Add(std::uint64_t value) {
  buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

void Histogram::MergeFrom(const Histogram& other) {
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[i].fetch_add(other.buckets_[i].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  }
  total_.fetch_add(other.total_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
}

std::uint64_t Histogram::Percentile(double q) const {
  const std::uint64_t total = total_.load(std::memory_order_relaxed);
  if (total == 0) {
    return 0;
  }
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const auto target =
      static_cast<std::uint64_t>(q * static_cast<double>(total - 1));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen > target) {
      return i == 0 ? 0 : (1ULL << i) - 1;  // bucket upper bound
    }
  }
  return ~0ULL;
}

std::string Histogram::ToString() const {
  std::string out;
  out += "p50=" + std::to_string(Percentile(0.50));
  out += " p90=" + std::to_string(Percentile(0.90));
  out += " p99=" + std::to_string(Percentile(0.99));
  out += " n=" + std::to_string(count());
  return out;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double log_sum = 0.0;
  for (double v : values) {
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace nearpm

// Small statistics helpers used by the benchmark harness to report the
// mean / stddev the paper plots as bars with error whiskers.
#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace nearpm {

// Welford online mean / variance accumulator. Single-threaded.
class RunningStat {
 public:
  void Add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double variance() const;  // sample variance (n-1)
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Fixed-bucket latency histogram with percentile queries (power-of-two
// bucketing, values in arbitrary units). Add() is safe to call from
// concurrent threads; queries are accurate once writers have quiesced
// (concurrent queries see some valid intermediate population).
//
// Power-of-two upper-bound semantics: a value v lands in bucket
// bit_width(v), i.e. bucket i covers [2^(i-1), 2^i - 1] (bucket 0 holds
// exactly v == 0). Percentile(q) walks the buckets to the smallest one
// containing the q-quantile sample and returns that bucket's *inclusive
// upper bound*, 2^i - 1 -- an upper bound on the true quantile, never an
// interpolation. Consequences worth knowing:
//  * Percentile is exact only for values that are themselves 2^i - 1;
//    otherwise it overshoots by at most 2x (the bucket width).
//  * Percentile(0.0) is the upper bound of the smallest populated bucket,
//    not the minimum sample; Percentile(1.0) is the upper bound of the
//    largest populated bucket, not the maximum sample.
//  * An empty histogram reports 0 for every quantile.
class Histogram {
 public:
  Histogram();
  Histogram(const Histogram& other);
  Histogram& operator=(const Histogram& other);

  void Add(std::uint64_t value);
  std::uint64_t count() const { return total_.load(std::memory_order_relaxed); }
  // Exact sum of all added values (unlike the bucketed quantiles).
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  // Returns an upper bound for the q-quantile (q in [0,1]); see above.
  std::uint64_t Percentile(double q) const;
  // Adds `other`'s population (bucket-wise) into this histogram.
  void MergeFrom(const Histogram& other);
  std::string ToString() const;

  static constexpr int kBuckets = 64;
  // The bucket Add() counts `value` in.
  static int BucketOf(std::uint64_t value);
  // The histogram of a population counted elsewhere, e.g. by a single
  // writer in plain counters: counts[i] values in bucket i (as BucketOf
  // places them), summing to `sum`.
  static Histogram FromBuckets(
      std::span<const std::uint64_t, kBuckets> counts, std::uint64_t sum);
  // Population of bucket i (0 holds exactly v == 0; i > 0 covers
  // [2^(i-1), 2^i - 1]) -- for exporters that serialize the distribution.
  std::uint64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> sum_{0};
};

// Geometric mean of a set of ratios (the paper reports average speedups).
double GeoMean(const std::vector<double>& values);

}  // namespace nearpm

#endif  // SRC_COMMON_STATS_H_

// Process-wide named counters and distributions.
//
// Call sites cache a reference once and then pay one relaxed atomic RMW per
// update:
//
//   static obs::Counter& c = obs::counter("gemm.dispatch.blocked");
//   c.add(1);
//
// Counters are monotonic u64 totals; distributions accumulate
// count/sum/min/max and log2 buckets of double observations (timings,
// active-set sizes).
// Registry entries are created on first use and never removed, so cached
// references stay valid for the process lifetime; reset_metrics() zeroes
// values in place for before/after measurements.
//
// Determinism: counters incremented per unit of work (per GEMM call, per
// attack iteration, per cache miss) total the same for any --threads value,
// because the work decomposition never depends on the thread count (DESIGN
// §5). Distributions of integer-valued observations share the property
// (bucket counts are integer sums, and double sums of small integers are
// exact in any order); timing distributions obviously do not, and the
// manifest comparison tooling only compares counters.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace con::obs {

class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Count, sum, sum of squares, min, max and a fixed log2-bucket histogram
// of double observations: the one instrument for timings (whole
// nanoseconds, see ScopedTimer) and sizes (active-set rows).
//
// Bucket i counts observations whose value, rounded to the nearest
// integer, has bit width i: bucket 0 holds values that round to 0 or
// below, bucket i (1 <= i < kBuckets-1) holds 2^(i-1) <= v < 2^i, and the
// last bucket absorbs everything larger, +infinity and NaN. record() is
// lock-free and allocation-free (relaxed atomics on fixed slots), so it is
// safe inside GEMM panels and attack inner loops. Integer-valued
// observations keep every field identical for any --threads value: the
// bucket counts are integer sums and double sums of integers below 2^53
// are exact in any order, extending the counter determinism contract to
// shape, not just totals.
class Distribution {
 public:
  static constexpr std::size_t kBuckets = 64;

  Distribution();

  void record(double x);
  // Sum of the bucket counts.
  std::uint64_t count() const;
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  // Sum of squared observations; with count/sum it yields mean and stddev
  // in snapshots.
  double sum_squares() const {
    return sumsq_.load(std::memory_order_relaxed);
  }
  // Min/max of recorded values; 0.0 when nothing was recorded.
  double min() const;
  double max() const;
  std::uint64_t bucket(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  std::vector<std::uint64_t> buckets() const;  // all kBuckets slots
  void reset();

  static std::size_t bucket_index(std::uint64_t v) {
    if (v == 0) return 0;
    const std::size_t w = static_cast<std::size_t>(std::bit_width(v));
    return w < kBuckets - 1 ? w : kBuckets - 1;
  }
  // The bucket of a double observation, defined for every double.
  static std::size_t bucket_of(double v) {
    if (v <= 0.0) return 0;
    if (!(v < 0x1p62)) return kBuckets - 1;  // also NaN
    return bucket_index(static_cast<std::uint64_t>(v + 0.5));
  }
  // Largest value a bucket can hold (inclusive); the deterministic
  // percentile readout reports this bound.
  static std::uint64_t bucket_upper(std::size_t i) {
    if (i == 0) return 0;
    if (i >= kBuckets - 1) return ~std::uint64_t{0};
    return (std::uint64_t{1} << i) - 1;
  }

  // Upper bucket bound covering the p-quantile (p in (0, 1]); 0 when
  // empty. Deterministic: depends only on the bucket vector.
  std::uint64_t percentile(double p) const {
    return percentile_of(buckets(), p);
  }
  static std::uint64_t percentile_of(const std::vector<std::uint64_t>& buckets,
                                     double p);

 private:
  std::atomic<double> sum_{0.0};
  std::atomic<double> sumsq_{0.0};
  // +/-infinity sentinels until the first observation; the accessors
  // translate the empty state to 0.0.
  std::atomic<double> min_;
  std::atomic<double> max_;
  std::atomic<std::uint64_t> counts_[kBuckets] = {};
};

// Scoped wall-time observation: on destruction records the elapsed whole
// nanoseconds into the distribution (integer-valued, but timings are not
// deterministic, and comparisons skip them).
class ScopedTimer {
 public:
  explicit ScopedTimer(Distribution& d);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Distribution& dist_;
  std::uint64_t start_ns_;
};

struct MetricsSnapshot {
  struct DistValue {
    std::string name;
    std::uint64_t count = 0;
    double sum = 0.0;
    double sumsq = 0.0;
    double min = 0.0;
    double max = 0.0;
    // All Distribution::kBuckets slots, in bucket order.
    std::vector<std::uint64_t> buckets;
  };
  // Sorted by name.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<DistValue> distributions;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  // Stable references, created on first use. Safe from any thread.
  Counter& counter(const std::string& name);
  Distribution& distribution(const std::string& name);

  MetricsSnapshot snapshot() const;
  // Zero every registered value in place (entries and cached references
  // survive).
  void reset();

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

// Convenience forwarders.
inline Counter& counter(const std::string& name) {
  return MetricsRegistry::instance().counter(name);
}
inline Distribution& dist(const std::string& name) {
  return MetricsRegistry::instance().distribution(name);
}
inline MetricsSnapshot snapshot_metrics() {
  return MetricsRegistry::instance().snapshot();
}
inline void reset_metrics() { MetricsRegistry::instance().reset(); }

}  // namespace con::obs

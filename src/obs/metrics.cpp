#include "obs/metrics.h"

#include <limits>
#include <map>
#include <memory>
#include <mutex>

#include "obs/obs.h"

namespace con::obs {

namespace {

// CAS loops instead of std::atomic<double>::fetch_add so the same code
// serves min/max and stays portable across libstdc++ versions.
void atomic_add(std::atomic<double>& a, double x) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + x, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double x) {
  double cur = a.load(std::memory_order_relaxed);
  while (x < cur &&
         !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double x) {
  double cur = a.load(std::memory_order_relaxed);
  while (x > cur &&
         !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

}  // namespace

Distribution::Distribution()
    : min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {}

void Distribution::record(double x) {
  counts_[bucket_of(x)].fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, x);
  atomic_add(sumsq_, x * x);
  atomic_min(min_, x);
  atomic_max(max_, x);
}

std::uint64_t Distribution::count() const {
  std::uint64_t total = 0;
  for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
  return total;
}

double Distribution::min() const {
  const double m = min_.load(std::memory_order_relaxed);
  return m == std::numeric_limits<double>::infinity() ? 0.0 : m;
}
double Distribution::max() const {
  const double m = max_.load(std::memory_order_relaxed);
  return m == -std::numeric_limits<double>::infinity() ? 0.0 : m;
}

std::vector<std::uint64_t> Distribution::buckets() const {
  std::vector<std::uint64_t> out(kBuckets);
  for (std::size_t i = 0; i < kBuckets; ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Distribution::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  sumsq_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

std::uint64_t Distribution::percentile_of(
    const std::vector<std::uint64_t>& buckets, double p) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : buckets) total += c;
  if (total == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // Rank of the requested quantile, 1-based; ceil so p=0.5 of two
  // observations lands on the first.
  std::uint64_t rank =
      static_cast<std::uint64_t>(p * static_cast<double>(total) + 0.9999999);
  if (rank == 0) rank = 1;
  if (rank > total) rank = total;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) return bucket_upper(i);
  }
  return bucket_upper(buckets.size() - 1);
}

ScopedTimer::ScopedTimer(Distribution& d) : dist_(d), start_ns_(now_ns()) {}

ScopedTimer::~ScopedTimer() {
  dist_.record(static_cast<double>(now_ns() - start_ns_));
}

struct MetricsRegistry::Impl {
  mutable std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Distribution>> dists;
};

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  static Impl* impl = new Impl();  // leaked: usable during exit
  return *impl;
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry reg;
  return reg;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto& slot = im.counters[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Distribution& MetricsRegistry::distribution(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto& slot = im.dists[name];
  if (slot == nullptr) slot = std::make_unique<Distribution>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  MetricsSnapshot snap;
  snap.counters.reserve(im.counters.size());
  for (const auto& [name, c] : im.counters) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.distributions.reserve(im.dists.size());
  for (const auto& [name, d] : im.dists) {
    std::vector<std::uint64_t> buckets = d->buckets();
    std::uint64_t count = 0;
    for (const std::uint64_t c : buckets) count += c;
    snap.distributions.push_back({name, count, d->sum(), d->sum_squares(),
                                  d->min(), d->max(), std::move(buckets)});
  }
  return snap;
}

void MetricsRegistry::reset() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  for (auto& [name, c] : im.counters) c->reset();
  for (auto& [name, d] : im.dists) d->reset();
}

}  // namespace con::obs

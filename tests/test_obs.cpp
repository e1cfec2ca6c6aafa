// Tests for the observability subsystem: spans, metrics, Chrome-trace
// export, JSON round-trips and run manifests.
//
// Built as its OWN test binary (con_obs_tests): it replaces the global
// operator new with heap_counter.h's counting one, which must not leak into
// the main test suite. The allocation-guard tests below read the count —
// the contract is that span recording and counter updates never allocate
// once a thread's ring exists, and cost only a relaxed load + branch when
// tracing is off.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "heap_counter.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/sampler.h"
#include "obs/stats_server.h"
#include "util/logging.h"
#include "util/threadpool.h"

namespace {

using con::obs::Json;

// Every X event in the trace for the calling thread, in ring order.
std::vector<const Json*> my_span_events(const Json& doc) {
  const int tid = con::obs::this_thread_id();
  std::vector<const Json*> out;
  for (const Json& e : doc.find("traceEvents")->items()) {
    if (e.find("ph")->as_string() == "X" &&
        e.find("tid")->as_int() == tid) {
      out.push_back(&e);
    }
  }
  return out;
}

class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    con::obs::set_tracing(true);
    con::obs::clear_trace();
  }
  void TearDown() override { con::obs::set_tracing(false); }
};

TEST_F(ObsTraceTest, NestedSpansRecordDepthAndContainment) {
  {
    con::obs::Span outer("outer");
    {
      con::obs::Span mid(std::string("model"), "forward");
      con::obs::Span inner("inner");
    }
  }
  const Json doc = con::obs::parse_json(con::obs::chrome_trace_json());
  const auto spans = my_span_events(doc);
  ASSERT_EQ(spans.size(), 3u);
  // Events are recorded at span END, so innermost comes first.
  EXPECT_EQ(spans[0]->find("name")->as_string(), "inner");
  EXPECT_EQ(spans[1]->find("name")->as_string(), "model.forward");
  EXPECT_EQ(spans[2]->find("name")->as_string(), "outer");
  EXPECT_EQ(spans[0]->find("args")->find("depth")->as_int(), 2);
  EXPECT_EQ(spans[1]->find("args")->find("depth")->as_int(), 1);
  EXPECT_EQ(spans[2]->find("args")->find("depth")->as_int(), 0);
  // Interval containment: child [ts, ts+dur] inside parent [ts, ts+dur].
  for (int child = 0; child < 2; ++child) {
    const double cts = spans[child]->find("ts")->as_double();
    const double cend = cts + spans[child]->find("dur")->as_double();
    const double pts = spans[child + 1]->find("ts")->as_double();
    const double pend = pts + spans[child + 1]->find("dur")->as_double();
    EXPECT_GE(cts, pts);
    EXPECT_LE(cend, pend);
  }
}

TEST_F(ObsTraceTest, TraceIsWellFormedAndCarriesThreadNames) {
  con::obs::set_thread_name("obs-test-main");
  { con::obs::Span s("solo"); }
  const std::string text = con::obs::chrome_trace_json();
  const Json doc = con::obs::parse_json(text);  // throws on malformed JSON
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool named = false;
  for (const Json& e : events->items()) {
    // Every event, X or M, carries the full Chrome trace_event envelope.
    ASSERT_NE(e.find("name"), nullptr);
    ASSERT_NE(e.find("ph"), nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    if (e.find("ph")->as_string() == "M" &&
        e.find("tid")->as_int() == con::obs::this_thread_id()) {
      EXPECT_EQ(e.find("args")->find("name")->as_string(), "obs-test-main");
      named = true;
    }
  }
  EXPECT_TRUE(named);
}

TEST_F(ObsTraceTest, LongSpanNamesAreTruncatedNotCorrupted) {
  const std::string longname(200, 'x');
  { con::obs::Span s(longname.c_str()); }
  const Json doc = con::obs::parse_json(con::obs::chrome_trace_json());
  const auto spans = my_span_events(doc);
  ASSERT_EQ(spans.size(), 1u);
  const std::string& recorded = spans[0]->find("name")->as_string();
  EXPECT_EQ(recorded.size(), con::obs::kSpanNameCap - 1);
  EXPECT_EQ(recorded, longname.substr(0, con::obs::kSpanNameCap - 1));
}

TEST_F(ObsTraceTest, FullRingDropsInsteadOfGrowing) {
  const std::size_t before = con::obs::trace_event_count();
  for (std::size_t i = 0; i < con::obs::kRingCapacity + 5; ++i) {
    con::obs::Span s("spin");
  }
  EXPECT_EQ(con::obs::trace_event_count() - before, con::obs::kRingCapacity);
  EXPECT_GE(con::obs::trace_dropped_count(), 5u);
  con::obs::clear_trace();
  EXPECT_EQ(con::obs::trace_event_count(), 0u);
  EXPECT_EQ(con::obs::trace_dropped_count(), 0u);
}

TEST_F(ObsTraceTest, DisabledSpansRecordNothing) {
  con::obs::set_tracing(false);
  { con::obs::Span s("ghost"); }
  EXPECT_EQ(con::obs::trace_event_count(), 0u);
}

// ---- allocation guards ------------------------------------------------------

TEST(ObsOverhead, SpansAllocateNothingWhenTracingOff) {
  con::obs::set_tracing(false);
  con::obs::this_thread_id();  // ensure the thread's ring exists
  const std::string base = "layer-name-beyond-sso-length-for-realism";
  const std::uint64_t before = con::testing::heap_allocations();
  for (int i = 0; i < 1000; ++i) {
    con::obs::Span a("gemm.nn");
    con::obs::Span b(base, "forward");
  }
  EXPECT_EQ(con::testing::heap_allocations() - before, 0u);
}

TEST(ObsOverhead, SpansAllocateNothingWhenTracingOn) {
  con::obs::set_tracing(true);
  con::obs::clear_trace();
  { con::obs::Span warm("warm"); }  // ring + first-touch done
  const std::string base = "layer-name-beyond-sso-length-for-realism";
  const std::uint64_t before = con::testing::heap_allocations();
  for (int i = 0; i < 1000; ++i) {
    con::obs::Span a("gemm.nn");
    con::obs::Span b(base, "forward");
  }
  EXPECT_EQ(con::testing::heap_allocations() - before, 0u);
  con::obs::set_tracing(false);
  con::obs::clear_trace();
}

TEST(ObsOverhead, CounterAndDistributionUpdatesAllocateNothing) {
  con::obs::Counter& c = con::obs::counter("obs_test.alloc_guard");
  con::obs::Distribution& d = con::obs::dist("obs_test.alloc_guard_dist");
  const std::uint64_t before = con::testing::heap_allocations();
  for (int i = 0; i < 1000; ++i) {
    c.add(1);
    d.record(static_cast<double>(i));
  }
  EXPECT_EQ(con::testing::heap_allocations() - before, 0u);
}

// ---- metrics ----------------------------------------------------------------

TEST(ObsMetrics, CountersAccumulateAndReset) {
  con::obs::reset_metrics();
  con::obs::Counter& c = con::obs::counter("obs_test.basic");
  c.add(3);
  c.add(4);
  EXPECT_EQ(c.value(), 7u);
  // Same name resolves to the same counter.
  EXPECT_EQ(&con::obs::counter("obs_test.basic"), &c);
  con::obs::reset_metrics();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetrics, DistributionTracksCountSumMinMax) {
  con::obs::reset_metrics();
  con::obs::Distribution& d = con::obs::dist("obs_test.dist");
  EXPECT_EQ(d.count(), 0u);
  EXPECT_EQ(d.min(), 0.0);  // empty state reads as zero
  EXPECT_EQ(d.max(), 0.0);
  d.record(4.0);
  d.record(-2.0);
  d.record(7.0);
  EXPECT_EQ(d.count(), 3u);
  EXPECT_EQ(d.sum(), 9.0);
  EXPECT_EQ(d.min(), -2.0);
  EXPECT_EQ(d.max(), 7.0);
}

TEST(ObsMetrics, ScopedTimerRecordsOneObservation) {
  con::obs::reset_metrics();
  con::obs::Distribution& d = con::obs::dist("obs_test.timer");
  { con::obs::ScopedTimer t(d); }
  EXPECT_EQ(d.count(), 1u);
  EXPECT_GE(d.max(), 0.0);
}

TEST(ObsMetrics, SnapshotIsSortedByName) {
  con::obs::reset_metrics();
  con::obs::counter("obs_test.zzz").add(1);
  con::obs::counter("obs_test.aaa").add(2);
  const con::obs::MetricsSnapshot snap = con::obs::snapshot_metrics();
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].first, snap.counters[i].first);
  }
}

// Counters incremented per unit of work must total the same no matter how
// the pool interleaves the work.
TEST(ObsMetrics, ParallelForCountsAreExact) {
  con::obs::reset_metrics();
  con::obs::Counter& c = con::obs::counter("obs_test.parallel");
  con::obs::Distribution& d = con::obs::dist("obs_test.parallel_dist");
  const std::size_t n = 10000;
  con::util::parallel_for(0, n, [&](std::size_t i) {
    c.add(1);
    d.record(static_cast<double>(i % 7));  // small ints: exact in any order
  });
  EXPECT_EQ(c.value(), n);
  EXPECT_EQ(d.count(), n);
  double expect_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) expect_sum += static_cast<double>(i % 7);
  EXPECT_EQ(d.sum(), expect_sum);
  EXPECT_EQ(d.min(), 0.0);
  EXPECT_EQ(d.max(), 6.0);
}

// ---- JSON -------------------------------------------------------------------

TEST(ObsJson, RoundTripsScalarsExactly) {
  Json doc = Json::object();
  doc.set("i", std::int64_t{-9007199254740993});  // not double-representable
  doc.set("d", 0.1);
  doc.set("e", -2.5e-300);  // dumped with an exponent
  doc.set("b", true);
  doc.set("n", nullptr);
  doc.set("s", "quote \" backslash \\ newline \n tab \t");
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  doc.set("a", std::move(arr));
  const Json back = con::obs::parse_json(doc.dump());
  EXPECT_EQ(back.find("i")->as_int(), -9007199254740993LL);
  EXPECT_EQ(back.find("d")->as_double(), 0.1);
  EXPECT_EQ(back.find("e")->as_double(), -2.5e-300);
  EXPECT_TRUE(back.find("b")->as_bool());
  EXPECT_TRUE(back.find("n")->is_null());
  EXPECT_EQ(back.find("s")->as_string(),
            "quote \" backslash \\ newline \n tab \t");
  EXPECT_EQ(back.find("a")->items()[0].as_int(), 1);
  EXPECT_EQ(back.find("a")->items()[1].as_string(), "two");
}

TEST(ObsJson, PrettyPrintParsesBack) {
  Json doc = Json::object();
  Json inner = Json::object();
  inner.set("k", 1);
  doc.set("outer", std::move(inner));
  const Json back = con::obs::parse_json(doc.dump(2));
  EXPECT_EQ(back.find("outer")->find("k")->as_int(), 1);
}

TEST(ObsJson, RejectsMalformedInput) {
  EXPECT_THROW(con::obs::parse_json("{"), std::runtime_error);
  EXPECT_THROW(con::obs::parse_json("{\"a\":1,}"), std::runtime_error);
  EXPECT_THROW(con::obs::parse_json("[1, 2] trailing"), std::runtime_error);
  EXPECT_THROW(con::obs::parse_json(""), std::runtime_error);
  EXPECT_THROW(con::obs::parse_json("nul"), std::runtime_error);
  // Malformed and unrepresentable numbers fail as parse errors.
  for (const char* bad : {".", "e5", "-", "1e", "[1e+]", "1e999", "-1e999"}) {
    try {
      con::obs::parse_json(bad);
      ADD_FAILURE() << bad << " parsed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("json parse error"),
                std::string::npos)
          << bad;
    }
  }
  // Nesting deep enough to overflow the stack if followed all the way;
  // 256 levels is the limit and still parses.
  EXPECT_THROW(con::obs::parse_json(std::string(1000000, '[')),
               std::runtime_error);
  EXPECT_THROW(con::obs::parse_json(std::string(257, '[') +
                                    std::string(257, ']')),
               std::runtime_error);
  EXPECT_NO_THROW(con::obs::parse_json(std::string(256, '[') +
                                       std::string(256, ']')));
}

// ---- manifests --------------------------------------------------------------

TEST(ObsManifest, WritesAndParsesBack) {
  con::obs::reset_metrics();
  con::obs::counter("obs_test.manifest_counter").add(42);
  con::obs::dist("obs_test.manifest_dist").record(1.5);

  con::obs::RunManifest m;
  m.name = "obs_test_run";
  m.wall_time_s = 1.25;
  m.threads = 4;
  m.config.emplace_back("network", Json("lenet5-small"));
  m.config.emplace_back("seed", Json(42));
  m.extra_counters.emplace_back("tensor.buffer_allocations",
                                std::uint64_t{12345});

  const char* tmpdir = std::getenv("TMPDIR");
  const std::string dir = tmpdir != nullptr ? tmpdir : "/tmp";
  const std::string path = con::obs::write_manifest(m, dir);
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("obs_test_run_manifest.json"), std::string::npos);

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, got);
  std::fclose(f);
  std::remove(path.c_str());

  const Json doc = con::obs::parse_json(text);
  EXPECT_EQ(doc.find("name")->as_string(), "obs_test_run");
  EXPECT_EQ(doc.find("wall_time_s")->as_double(), 1.25);
  EXPECT_EQ(doc.find("threads")->as_int(), 4);
  EXPECT_EQ(doc.find("config")->find("network")->as_string(), "lenet5-small");
  EXPECT_EQ(doc.find("config")->find("seed")->as_int(), 42);
  const Json* counters = doc.find("metrics")->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("obs_test.manifest_counter")->as_int(), 42);
  EXPECT_EQ(counters->find("tensor.buffer_allocations")->as_int(), 12345);
  const Json* dists = doc.find("metrics")->find("distributions");
  ASSERT_NE(dists, nullptr);
  const Json* d = dists->find("obs_test.manifest_dist");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->find("count")->as_int(), 1);
  EXPECT_EQ(d->find("sum")->as_double(), 1.5);
}

// ---- distribution buckets ---------------------------------------------------

TEST(ObsDistribution, BucketIndexAndBoundsPartitionTheRange) {
  using con::obs::Distribution;
  constexpr std::size_t kLast = Distribution::kBuckets - 1;
  EXPECT_EQ(Distribution::bucket_index(0), 0u);
  EXPECT_EQ(Distribution::bucket_index(1), 1u);
  EXPECT_EQ(Distribution::bucket_index(2), 2u);
  EXPECT_EQ(Distribution::bucket_index(3), 2u);
  EXPECT_EQ(Distribution::bucket_index(4), 3u);
  EXPECT_EQ(Distribution::bucket_index(7), 3u);
  EXPECT_EQ(Distribution::bucket_index(8), 4u);
  // The last bucket absorbs everything past 2^62.
  EXPECT_EQ(Distribution::bucket_index(std::uint64_t{1} << 62), kLast);
  EXPECT_EQ(Distribution::bucket_index(~std::uint64_t{0}), kLast);
  EXPECT_EQ(Distribution::bucket_upper(0), 0u);
  EXPECT_EQ(Distribution::bucket_upper(1), 1u);
  EXPECT_EQ(Distribution::bucket_upper(2), 3u);
  EXPECT_EQ(Distribution::bucket_upper(3), 7u);
  EXPECT_EQ(Distribution::bucket_upper(kLast), ~std::uint64_t{0});
  // Every value lands in the bucket whose bounds contain it.
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 100ull, 65535ull,
                          (1ull << 40) + 17ull}) {
    const std::size_t i = Distribution::bucket_index(v);
    EXPECT_LE(v, Distribution::bucket_upper(i));
    if (i > 0) {
      EXPECT_GT(v, Distribution::bucket_upper(i - 1));
    }
  }
  // Every double has a bucket: non-positive values go to bucket 0, values
  // past the integer range, infinity and NaN to the last one, and the rest
  // round to the nearest integer.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double v : {0.0, -0.0, -1.0, -1e300, -inf, 0.4}) {
    EXPECT_EQ(Distribution::bucket_of(v), 0u) << v;
  }
  for (const double v : {0x1p62, 0x1p64, 1e300, inf, nan, -nan}) {
    EXPECT_EQ(Distribution::bucket_of(v), kLast) << v;
  }
  EXPECT_EQ(Distribution::bucket_of(0.5), 1u);
  EXPECT_EQ(Distribution::bucket_of(2.6), 2u);
  EXPECT_EQ(Distribution::bucket_of(0x1p62 - 1024.0), kLast - 1);
  // The same inputs through record(): one count per observation.
  con::obs::Distribution& d = con::obs::dist("obs_test.bucket_edges");
  d.reset();
  for (const double v : {-inf, -1.0, 0.0, nan, inf, 0x1p64}) d.record(v);
  EXPECT_EQ(d.bucket(0), 3u);
  EXPECT_EQ(d.bucket(kLast), 3u);
  EXPECT_EQ(d.count(), 6u);
}

TEST(ObsDistribution, PercentilesReadInclusiveBucketUpperBounds) {
  con::obs::reset_metrics();
  con::obs::Distribution& d = con::obs::dist("obs_test.hist_pct");
  EXPECT_EQ(d.percentile(0.5), 0u);  // empty reads as 0
  d.record(0.0);
  d.record(1.0);
  d.record(5.0);
  d.record(5.0);  // bucket 3: [4, 7]
  EXPECT_EQ(d.count(), 4u);
  EXPECT_EQ(d.percentile(0.25), 0u);
  EXPECT_EQ(d.percentile(0.5), 1u);
  EXPECT_EQ(d.percentile(0.75), 7u);
  EXPECT_EQ(d.percentile(0.99), 7u);
  EXPECT_EQ(d.percentile(1.0), 7u);
  // Observations round to the nearest integer; negatives clamp to 0.
  d.record(2.6);
  EXPECT_EQ(d.bucket(2), 1u);
  d.record(-3.0);
  EXPECT_EQ(d.bucket(0), 2u);
  d.reset();
  EXPECT_EQ(d.count(), 0u);
}

TEST(ObsDistribution, RecordIsAllocationAndLockFree) {
  con::obs::Distribution& d = con::obs::dist("obs_test.hist_alloc");
  // The per-field accumulators must be lock-free atomics for the hot-path
  // claim to hold at all.
  std::atomic<std::uint64_t> count_probe{0};
  std::atomic<double> sum_probe{0.0};
  EXPECT_TRUE(count_probe.is_lock_free());
  EXPECT_TRUE(sum_probe.is_lock_free());
  const std::uint64_t before = con::testing::heap_allocations();
  for (int i = 0; i < 1000; ++i) {
    d.record(static_cast<double>(i));
    d.record(static_cast<double>(i) + 0.25);
  }
  EXPECT_EQ(con::testing::heap_allocations() - before, 0u);
}

// The determinism claim: for a fixed multiset of integer observations,
// every field (count, sum, sum of squares, min, max and the bucket vector)
// is identical however the observations are partitioned across threads.
// Raw std::threads (not the global pool — its size is process-wide and
// already pinned by other suites) at 1/4/8.
TEST(ObsDistribution, BucketsAreIdenticalForAnyThreadCount) {
  con::obs::reset_metrics();
  const std::size_t n = 20000;
  const auto observation = [](std::size_t i) {
    return static_cast<double>((i * i + 3 * i) % 100003);
  };
  struct Fields {
    std::uint64_t count;
    double sum, sumsq, min, max;
    std::vector<std::uint64_t> buckets;
    bool operator==(const Fields&) const = default;
  };
  std::vector<Fields> results;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{8}}) {
    con::obs::Distribution& d = con::obs::dist(
        "obs_test.hist_threads_" + std::to_string(threads));
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (std::size_t i = t; i < n; i += threads) d.record(observation(i));
      });
    }
    for (std::thread& w : workers) w.join();
    EXPECT_EQ(d.count(), n);
    results.push_back(
        {d.count(), d.sum(), d.sum_squares(), d.min(), d.max(), d.buckets()});
  }
  EXPECT_TRUE(results[0] == results[1]);
  EXPECT_TRUE(results[0] == results[2]);
  EXPECT_EQ(results[0].min, 0.0);
  EXPECT_GT(results[0].max, 0.0);
}

TEST(ObsMetrics, DistributionTracksSumOfSquares) {
  con::obs::reset_metrics();
  con::obs::Distribution& d = con::obs::dist("obs_test.sumsq");
  d.record(1.0);
  d.record(2.0);
  d.record(3.0);
  EXPECT_EQ(d.sum_squares(), 14.0);
  con::obs::reset_metrics();
  EXPECT_EQ(d.sum_squares(), 0.0);
}

// ---- manifest sections ------------------------------------------------------

TEST(ObsManifest, DistributionsCarryMeanAndStddev) {
  con::obs::reset_metrics();
  con::obs::Distribution& d = con::obs::dist("obs_test.meanstd");
  d.record(2.0);
  d.record(4.0);
  const Json dists = con::obs::distributions_json(con::obs::snapshot_metrics());
  const Json* entry = dists.find("obs_test.meanstd");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->find("count")->as_int(), 2);
  EXPECT_EQ(entry->find("mean")->as_double(), 3.0);
  EXPECT_EQ(entry->find("stddev")->as_double(), 1.0);
}

TEST(ObsManifest, DistributionsListNonZeroBuckets) {
  con::obs::reset_metrics();
  con::obs::Distribution& d = con::obs::dist("obs_test.hist_manifest");
  d.record(0.0);
  d.record(1.0);
  d.record(1.0);
  d.record(8.0);  // bucket 4
  const Json dists = con::obs::distributions_json(con::obs::snapshot_metrics());
  const Json* entry = dists.find("obs_test.hist_manifest");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->find("count")->as_int(), 4);
  EXPECT_EQ(entry->find("p50")->as_int(), 1);
  EXPECT_EQ(entry->find("p99")->as_int(), 15);  // bucket 4 upper bound
  const auto& buckets = entry->find("buckets")->items();
  ASSERT_EQ(buckets.size(), 3u);  // only the non-zero buckets appear
  EXPECT_EQ(buckets[0].items()[0].as_int(), 0);
  EXPECT_EQ(buckets[0].items()[1].as_int(), 1);
  EXPECT_EQ(buckets[1].items()[0].as_int(), 1);
  EXPECT_EQ(buckets[1].items()[1].as_int(), 2);
  EXPECT_EQ(buckets[2].items()[0].as_int(), 4);
  EXPECT_EQ(buckets[2].items()[1].as_int(), 1);
}

TEST(ObsManifest, TraceDropAccountingReachesManifestAndApi) {
  con::obs::set_tracing(true);
  con::obs::clear_trace();
  for (std::size_t i = 0; i < con::obs::kRingCapacity + 7; ++i) {
    con::obs::Span s("drop-spin");
  }
  // The API view: this thread's ring reports its drops.
  bool found = false;
  for (const con::obs::RingDropCount& rd : con::obs::trace_ring_drops()) {
    if (rd.tid == con::obs::this_thread_id()) {
      EXPECT_GE(rd.dropped, 7u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // The manifest view: trace.dropped_total and the per-thread map.
  con::obs::RunManifest m;
  m.name = "drop_test";
  const Json doc = con::obs::manifest_json(m);
  const Json* trace = doc.find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_GE(trace->find("dropped_total")->as_int(), 7);
  EXPECT_FALSE(trace->find("dropped_by_thread")->members().empty());
  con::obs::clear_trace();
  con::obs::set_tracing(false);
}

// ---- phases -----------------------------------------------------------------

TEST(ObsPhase, ScopedPhaseNestsAndRestores) {
  con::obs::set_phase("outer");
  EXPECT_EQ(con::obs::current_phase(), "outer");
  {
    con::obs::ScopedPhase inner("inner");
    EXPECT_EQ(con::obs::current_phase(), "inner");
    {
      con::obs::ScopedPhase deeper("deeper");
      EXPECT_EQ(con::obs::current_phase(), "deeper");
    }
    EXPECT_EQ(con::obs::current_phase(), "inner");
  }
  EXPECT_EQ(con::obs::current_phase(), "outer");
  con::obs::set_phase("");
}

// ---- telemetry sampler ------------------------------------------------------

namespace {
std::string temp_dir() {
  const char* tmpdir = std::getenv("TMPDIR");
  return tmpdir != nullptr ? tmpdir : "/tmp";
}

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, got);
  std::fclose(f);
  return text;
}

std::vector<Json> parse_jsonl(const std::string& text) {
  std::vector<Json> records;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    EXPECT_NE(end, std::string::npos);
    records.push_back(con::obs::parse_json(text.substr(start, end - start)));
    start = end + 1;
  }
  return records;
}
}  // namespace

TEST(ObsSampler, StreamsDeltasAndFinalSnapshotMatchesManifestBytes) {
  con::obs::reset_metrics();
  const std::string path = temp_dir() + "/obs_test_sampler.jsonl";
  con::obs::Counter& c = con::obs::counter("obs_test.sampler_counter");
  c.add(5);
  std::vector<std::pair<std::string, std::uint64_t>> extras;
  extras.emplace_back("tensor.buffer_allocations", std::uint64_t{99});
  {
    con::obs::Sampler sampler({path, /*interval_ms=*/10});
    ASSERT_TRUE(sampler.ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    c.add(2);
    sampler.finish(extras);
    // Idempotent: a second finish (and the destructor) must not append.
    sampler.finish(extras);
  }
  const std::string text = slurp(path);
  std::remove(path.c_str());
  const std::vector<Json> records = parse_jsonl(text);
  ASSERT_GE(records.size(), 2u);  // at least one periodic tick + the final
  double prev_elapsed = 0.0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].find("seq")->as_int(), static_cast<std::int64_t>(i));
    EXPECT_GE(records[i].find("elapsed_s")->as_double(), prev_elapsed);
    prev_elapsed = records[i].find("elapsed_s")->as_double();
    if (i + 1 < records.size()) {
      EXPECT_EQ(records[i].find("final"), nullptr);
      ASSERT_NE(records[i].find("counters_delta"), nullptr);
    }
  }
  // Delta encoding: the first periodic tick reports the pre-start value as
  // its delta (prev starts empty), and unchanged counters never reappear.
  const Json* first_delta = records[0].find("counters_delta");
  const Json* seen = first_delta->find("obs_test.sampler_counter");
  ASSERT_NE(seen, nullptr);
  EXPECT_EQ(seen->as_int(), 5);
  // The final record: marked, full sections, and its counters object must
  // be byte-identical to what the manifest emitter produces for the same
  // quiesced registry + the same extras.
  const Json& final_rec = records.back();
  ASSERT_NE(final_rec.find("final"), nullptr);
  EXPECT_TRUE(final_rec.find("final")->as_bool());
  const std::string manifest_bytes =
      con::obs::counters_json(con::obs::snapshot_metrics(), extras).dump();
  EXPECT_EQ(final_rec.find("counters")->dump(), manifest_bytes);
  ASSERT_NE(final_rec.find("distributions"), nullptr);
  ASSERT_NE(final_rec.find("trace_dropped"), nullptr);
}

// ---- stats server -----------------------------------------------------------

namespace {
std::string query_socket(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  EXPECT_LT(path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return "";
  }
  std::string body;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    body.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return body;
}
}  // namespace

TEST(ObsStatsServer, ServesOneJsonSnapshotPerConnection) {
  con::obs::reset_metrics();
  con::obs::counter("obs_test.stats_counter").add(11);
  con::obs::set_phase("stats-test");
  const std::string path = temp_dir() + "/obs_test_stats.sock";
  con::obs::StatsServer server(path, {"unit-test-run", 3});
  ASSERT_TRUE(server.ok());
  const std::string body = query_socket(path);
  ASSERT_FALSE(body.empty());
  const Json doc = con::obs::parse_json(body);
  EXPECT_EQ(doc.find("pid")->as_int(), static_cast<std::int64_t>(::getpid()));
  EXPECT_EQ(doc.find("run")->as_string(), "unit-test-run");
  EXPECT_EQ(doc.find("threads")->as_int(), 3);
  EXPECT_GE(doc.find("elapsed_s")->as_double(), 0.0);
  EXPECT_EQ(doc.find("phase")->as_string(), "stats-test");
  const Json* counters = doc.find("metrics")->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("obs_test.stats_counter")->as_int(), 11);
  ASSERT_NE(doc.find("metrics")->find("distributions"), nullptr);
  // Wait until the serve loop has accounted the request (the client sees
  // EOF slightly before the server increments), then stop: the socket must
  // be unlinked and refuse further connections.
  for (int i = 0; i < 200 && server.requests_served() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.requests_served(), 1u);
  server.stop();
  EXPECT_TRUE(query_socket(path).empty());
  con::obs::set_phase("");
}

TEST(ObsStatsServer, OverlongSocketPathDisablesInsteadOfThrowing) {
  const std::string path = temp_dir() + "/" + std::string(200, 'x') + ".sock";
  con::obs::StatsServer server(path, {"x", 1});
  EXPECT_FALSE(server.ok());
}

// ---- logging satellites -----------------------------------------------------

TEST(ObsLogging, LinesCarryElapsedTimeAndThreadId) {
  ::testing::internal::CaptureStderr();
  con::util::log_info("hello %d", 7);
  const std::string out = ::testing::internal::GetCapturedStderr();
  // "[I <elapsed> tNN] hello 7"
  EXPECT_EQ(out.rfind("[I ", 0), 0u);
  EXPECT_NE(out.find(" t"), std::string::npos);
  EXPECT_NE(out.find("] hello 7"), std::string::npos);
}

TEST(ObsLogging, TruncatedLinesAreMarkedWithEllipsis) {
  const std::string big(2000, 'y');
  ::testing::internal::CaptureStderr();
  con::util::log_info("%s", big.c_str());
  const std::string out = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(out.find("\xE2\x80\xA6"), std::string::npos);
  EXPECT_LT(out.size(), 1200u);  // 1023 payload + prefix, not 2000
}

}  // namespace

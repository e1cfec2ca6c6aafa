// Tests for the content-addressed artifact store (src/store/): SHA-256
// correctness against FIPS vectors, derivation canonicalization and hash
// sensitivity, atomic realise() with hit/miss accounting, root handling and
// the mark-and-sweep collector. The `StoreGc.*` suite doubles as the
// `store_gc_smoke` ctest (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "store/derivation.h"
#include "store/hash.h"
#include "store/store.h"
#include "test_helpers.h"

namespace con {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f << content;
}

bool file_exists(const std::string& path) {
  std::ifstream f(path);
  return f.good();
}

using con::testing::fresh_store_dir;

// ---------------------------------------------------------------- SHA-256

TEST(Sha256, FipsTestVectors) {
  // FIPS 180-4 / NIST CAVP known-answer vectors.
  EXPECT_EQ(
      store::hash_string("").hex(),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      store::hash_string("abc").hex(),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      store::hash_string(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
          .hex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  // The million-'a' FIPS vector, fed through update() in odd-sized chunks
  // (1, 3, 7, ... bytes) so every 64-byte block boundary case is crossed.
  const std::string data(1000000, 'a');
  store::Sha256 h;
  std::size_t pos = 0;
  std::size_t step = 1;
  while (pos < data.size()) {
    const std::size_t n = std::min(step, data.size() - pos);
    h.update(data.data() + pos, n);
    pos += n;
    step = step * 2 + 1;
  }
  EXPECT_EQ(
      h.finish().hex(),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, HexRoundTripAndShortForm) {
  const store::Hash h = store::hash_string("round trip");
  EXPECT_EQ(store::hash_from_hex(h.hex()), h);
  EXPECT_EQ(h.short_hex().size(), 32u);
  EXPECT_EQ(h.hex().substr(0, 32), h.short_hex());
  EXPECT_FALSE(h.is_zero());
  EXPECT_TRUE(store::Hash{}.is_zero());
  EXPECT_THROW(store::hash_from_hex("not-hex"), std::invalid_argument);
}

// ------------------------------------------------------------- Derivation

store::Derivation sample_derivation() {
  store::Derivation d("train-baseline", "lenet5-small-s42");
  d.set("network", std::string("lenet5-small"));
  d.set("seed", std::uint64_t{42});
  d.set("epochs", std::int64_t{2});
  d.set("lr", 0.01);
  d.set("one_shot", false);
  return d;
}

TEST(Derivation, HashIgnoresAttrAndInputOrder) {
  store::Derivation a("b", "n");
  a.set("x", std::int64_t{1});
  a.set("y", std::int64_t{2});
  a.add_input(store::hash_string("in1"));
  a.add_input(store::hash_string("in2"));

  store::Derivation b("b", "n");
  b.add_input(store::hash_string("in2"));
  b.set("y", std::int64_t{2});
  b.add_input(store::hash_string("in1"));
  b.set("x", std::int64_t{1});

  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(Derivation, HashIsSensitiveToEveryClosureInput) {
  const store::Hash base = sample_derivation().hash();

  store::Derivation attr = sample_derivation();
  EXPECT_THROW(attr.set("seed", std::uint64_t{43}), std::exception)
      << "re-setting a closure input must be rejected, not overwritten";

  store::Derivation d2("train-baseline", "lenet5-small-s43");
  d2.set("network", std::string("lenet5-small"));
  d2.set("seed", std::uint64_t{43});
  d2.set("epochs", std::int64_t{2});
  d2.set("lr", 0.01);
  d2.set("one_shot", false);
  EXPECT_NE(d2.hash(), base) << "seed must be part of the address";

  store::Derivation d3 = sample_derivation();
  d3.add_input(store::hash_string("extra-input"));
  EXPECT_NE(d3.hash(), base) << "inputs must be part of the address";

  store::Derivation d4("finetune", "lenet5-small-s42");
  d4.set("network", std::string("lenet5-small"));
  d4.set("seed", std::uint64_t{42});
  d4.set("epochs", std::int64_t{2});
  d4.set("lr", 0.01);
  d4.set("one_shot", false);
  EXPECT_NE(d4.hash(), base) << "builder must be part of the address";
}

TEST(Derivation, DoublesAreRoundTripExact) {
  store::Derivation a("b", "n");
  a.set("eps", 0.1);  // not representable in binary — %.17g must pin it
  store::Derivation b("b", "n");
  b.set("eps", 1.0 / 10.0);  // the same double, computed differently
  EXPECT_EQ(a.hash(), b.hash());

  store::Derivation c("b", "n");
  c.set("eps", 0.1000000001);
  EXPECT_NE(c.hash(), a.hash());
}

TEST(Derivation, ParseInputHashesRoundTrips) {
  store::Derivation d = sample_derivation();
  const store::Hash in1 = store::hash_string("in1");
  const store::Hash in2 = store::hash_string("in2");
  d.add_input(in1);
  d.add_input(in2);
  std::vector<store::Hash> parsed = store::parse_input_hashes(d.canonical());
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_TRUE((parsed[0] == in1 && parsed[1] == in2) ||
              (parsed[0] == in2 && parsed[1] == in1));
  EXPECT_TRUE(store::parse_input_hashes("complete garbage\n").empty());
}

// ------------------------------------------------------------------ Store

TEST(StoreRealise, MissBuildsThenHitServes) {
  store::Store s(fresh_store_dir("realise"));
  store::Derivation d = sample_derivation();

  const std::uint64_t hits0 = obs::counter("store.hit").value();
  const std::uint64_t misses0 = obs::counter("store.miss").value();

  int builds = 0;
  auto build = [&](const std::string& tmp) {
    ++builds;
    write_file(tmp, "artifact-bytes");
  };
  const std::string p1 = s.realise(d, build);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(read_file(p1), "artifact-bytes");
  EXPECT_EQ(obs::counter("store.miss").value(), misses0 + 1);

  const std::string p2 = s.realise(d, build);
  EXPECT_EQ(builds, 1) << "second realise must be served from the store";
  EXPECT_EQ(p2, p1);
  EXPECT_EQ(obs::counter("store.hit").value(), hits0 + 1);

  // Provenance sidecar records the exact closure.
  EXPECT_EQ(read_file(p1 + ".drv").substr(0, d.canonical().size()),
            d.canonical());
  EXPECT_TRUE(s.contains(d));
}

TEST(StoreRealise, FailedBuildLeavesNoObject) {
  store::Store s(fresh_store_dir("failed"));
  store::Derivation d = sample_derivation();
  EXPECT_THROW(s.realise(d,
                         [](const std::string&) {
                           throw std::runtime_error("builder exploded");
                         }),
               std::runtime_error);
  EXPECT_FALSE(s.contains(d))
      << "a failed build must not leave a partial object";
  // The store stays usable: the next realise builds for real.
  const std::string p =
      s.realise(d, [](const std::string& tmp) { write_file(tmp, "ok"); });
  EXPECT_EQ(read_file(p), "ok");
}

TEST(StoreRealise, ConcurrentBuildersRaceBenignly) {
  store::Store s(fresh_store_dir("race"));
  store::Derivation d = sample_derivation();
  constexpr int kThreads = 8;
  std::atomic<int> builds{0};
  std::vector<std::thread> threads;
  std::vector<std::string> paths(kThreads);
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      paths[static_cast<std::size_t>(i)] =
          s.realise(d, [&](const std::string& tmp) {
            builds.fetch_add(1);
            write_file(tmp, "deterministic-bytes");
          });
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& p : paths) {
    EXPECT_EQ(p, paths[0]);
    EXPECT_EQ(read_file(p), "deterministic-bytes");
  }
  EXPECT_GE(builds.load(), 1);
  EXPECT_EQ(s.list_objects().size(), 1u);
}

TEST(StoreRealise, DistinctDerivationsGetDistinctPaths) {
  store::Store s(fresh_store_dir("distinct"));
  store::Derivation a = sample_derivation();
  store::Derivation b("train-baseline", "lenet5-small-s43");
  b.set("network", std::string("lenet5-small"));
  b.set("seed", std::uint64_t{43});
  b.set("epochs", std::int64_t{2});
  b.set("lr", 0.01);
  b.set("one_shot", false);
  const std::string pa =
      s.realise(a, [](const std::string& t) { write_file(t, "a"); });
  const std::string pb =
      s.realise(b, [](const std::string& t) { write_file(t, "b"); });
  EXPECT_NE(pa, pb);
  EXPECT_EQ(s.list_objects().size(), 2u);
}

// ---------------------------------------------------------------- StoreGc
// This suite is also registered as the `store_gc_smoke` ctest.

TEST(StoreGc, SweepsUnreachableKeepsRootedClosure) {
  store::Store s(fresh_store_dir("gc"));

  // Chain: base <- derived (derived's closure includes base). Plus an
  // orphan no root reaches.
  store::Derivation base("train", "base");
  base.set("seed", std::uint64_t{1});
  const std::string base_path =
      s.realise(base, [](const std::string& t) { write_file(t, "base-bytes"); });

  store::Derivation derived("finetune", "derived");
  derived.set("density", 0.5);
  derived.add_input(base.hash());
  const std::string derived_path = s.realise(
      derived, [](const std::string& t) { write_file(t, "derived-bytes"); });

  store::Derivation orphan("train", "orphan");
  orphan.set("seed", std::uint64_t{9});
  const std::string orphan_path = s.realise(
      orphan, [](const std::string& t) { write_file(t, "orphan-bytes"); });

  s.add_root("goal", derived_path);

  const std::uint64_t evict0 = obs::counter("store.evict").value();
  const std::uint64_t bytes0 = obs::counter("store.gc_bytes").value();
  const store::Store::GcStats stats = s.gc();

  EXPECT_EQ(stats.deleted, 1u);
  EXPECT_EQ(stats.live, 2u);
  EXPECT_GT(stats.bytes_freed, 0u);
  EXPECT_EQ(obs::counter("store.evict").value(), evict0 + 1);
  EXPECT_EQ(obs::counter("store.gc_bytes").value(),
            bytes0 + stats.bytes_freed);

  EXPECT_FALSE(file_exists(orphan_path));
  // Survivors are byte-identical, not merely present.
  EXPECT_EQ(read_file(base_path), "base-bytes");
  EXPECT_EQ(read_file(derived_path), "derived-bytes");
}

TEST(StoreGc, RepointedRootStrandsOldClosure) {
  store::Store s(fresh_store_dir("repoint"));
  store::Derivation v1("sweep", "v1");
  v1.set("eps", 0.1);
  const std::string p1 =
      s.realise(v1, [](const std::string& t) { write_file(t, "v1"); });
  s.add_root("sweep-goal", p1);

  store::Derivation v2("sweep", "v2");
  v2.set("eps", 0.2);
  const std::string p2 =
      s.realise(v2, [](const std::string& t) { write_file(t, "v2"); });
  s.add_root("sweep-goal", p2);  // same label: re-point, not accumulate

  const store::Store::GcStats stats = s.gc();
  EXPECT_EQ(stats.deleted, 1u);
  EXPECT_FALSE(file_exists(p1)) << "the stale closure must be collected";
  EXPECT_EQ(read_file(p2), "v2");
}

TEST(StoreGc, ClearsAbandonedTmpFiles) {
  const std::string root = fresh_store_dir("tmp");
  store::Store s(root);
  write_file(root + "/tmp/crashed-build-leftover", "partial");
  const store::Store::GcStats stats = s.gc();
  (void)stats;
  EXPECT_FALSE(file_exists(root + "/tmp/crashed-build-leftover"));
}

TEST(StoreGc, DanglingRootIsSkipped) {
  const std::string root = fresh_store_dir("dangling");
  store::Store s(root);
  store::Derivation kept("train", "kept");
  kept.set("seed", std::uint64_t{3});
  const std::string kept_path =
      s.realise(kept, [](const std::string& t) { write_file(t, "kept"); });
  s.add_root("kept", kept_path);
  // A root whose object is gone (deleted by hand, or never landed).
  std::filesystem::create_symlink("../objects/no-such-object",
                                  root + "/roots/dangling");

  store::Store::GcStats stats;
  EXPECT_NO_THROW(stats = s.gc());
  EXPECT_EQ(stats.live, 1u);
  EXPECT_EQ(stats.deleted, 0u);
  EXPECT_EQ(read_file(kept_path), "kept");
}

TEST(StoreGc, TruncatedSidecarKeepsRootedObject) {
  store::Store s(fresh_store_dir("truncated"));
  store::Derivation base("train", "base");
  base.set("seed", std::uint64_t{5});
  s.realise(base, [](const std::string& t) { write_file(t, "base"); });
  store::Derivation derived("finetune", "derived");
  derived.add_input(base.hash());
  const std::string derived_path = s.realise(
      derived, [](const std::string& t) { write_file(t, "derived"); });
  s.add_root("goal", derived_path);

  // Cut the sidecar in the middle of its input hash, as a crash or a full
  // disk would leave it.
  const std::string canonical = derived.canonical();
  const std::string cut =
      canonical.substr(0, canonical.find(base.hash().hex()) + 20);
  write_file(derived_path + ".drv", cut);
  EXPECT_TRUE(store::parse_input_hashes(cut).empty())
      << "a partial input line must yield no edge";

  store::Store::GcStats stats;
  EXPECT_NO_THROW(stats = s.gc());
  EXPECT_EQ(read_file(derived_path), "derived");
  EXPECT_EQ(stats.live, 1u);
  EXPECT_EQ(stats.deleted, 1u) << "the cut edge no longer reaches base";
}

TEST(StoreGc, EmptyStoreGcIsANoop) {
  store::Store s(fresh_store_dir("empty"));
  const store::Store::GcStats stats = s.gc();
  EXPECT_EQ(stats.scanned, 0u);
  EXPECT_EQ(stats.deleted, 0u);
  EXPECT_EQ(stats.bytes_freed, 0u);
}

}  // namespace
}  // namespace con

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "util/ascii_plot.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/threadpool.h"

namespace con::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NamedStreamsAreIndependent) {
  Rng a(7, "stream-a"), b(7, "stream-b"), a2(7, "stream-a");
  EXPECT_NE(a.next_u64(), b.next_u64());
  Rng a3(7, "stream-a");
  EXPECT_EQ(a3.next_u64(), a2.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformMeanApproximatelyHalf) {
  Rng rng(4);
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.02);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(5);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(8);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  std::vector<std::atomic<int>> counts(100);
  parallel_for(0, 100, [&](std::size_t i) { counts[i]++; });
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, SubmitAndWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) pool.submit([&] { done++; });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 20);
}

TEST(Cli, ParsesKeyValueForms) {
  const char* argv[] = {"prog",  "--alpha=3",  "--beta",    "4.5",
                        "--flag", "--no-color", "--seed=-7", "--lr=1e-3",
                        "pos1"};
  CliFlags flags(9, argv);
  EXPECT_EQ(flags.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(flags.get_double("beta", 0.0), 4.5);
  EXPECT_EQ(flags.get_int("seed", 0), -7);
  EXPECT_EQ(flags.get_double("lr", 0.0), 1e-3);
  EXPECT_TRUE(flags.get_bool("flag", false));
  EXPECT_FALSE(flags.get_bool("color", true));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos1");
  EXPECT_NO_THROW(flags.check_unused());
}

TEST(Cli, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  CliFlags flags(1, argv);
  EXPECT_EQ(flags.get_string("name", "dflt"), "dflt");
  EXPECT_EQ(flags.get_int("n", 9), 9);
}

TEST(Cli, UnusedFlagDetected) {
  const char* argv[] = {"prog", "--typo=1"};
  CliFlags flags(2, argv);
  EXPECT_THROW(flags.check_unused(), std::invalid_argument);
}

TEST(Cli, BadBooleanThrows) {
  const char* argv[] = {"prog", "--b=maybe"};
  CliFlags flags(2, argv);
  EXPECT_THROW(flags.get_bool("b", false), std::invalid_argument);
}

// The std::invalid_argument message `get` throws, or "no exception".
template <typename F>
std::string message(F get) {
  try {
    get();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "no exception";
}

TEST(Cli, PartlyNumericValuesThrowNamingTheFlag) {
  const char* argv[] = {"prog",      "--threads", "4x",
                        "--eps",     "0.3.2",     "--n",
                        "abc",       "--big=99999999999999999999",
                        "--huge=1e999"};
  CliFlags flags(9, argv);
  EXPECT_EQ(message([&] { flags.get_int("threads", 1); }),
            "flag --threads is not an integer: 4x");
  EXPECT_EQ(message([&] { flags.get_double("eps", 0.0); }),
            "flag --eps is not a number: 0.3.2");
  EXPECT_EQ(message([&] { flags.get_int("n", 0); }),
            "flag --n is not an integer: abc");
  EXPECT_EQ(message([&] { flags.get_int("big", 0); }),
            "flag --big is not an integer: 99999999999999999999");
  EXPECT_EQ(message([&] { flags.get_double("huge", 0.0); }),
            "flag --huge is not a number: 1e999");
}

TEST(Cli, RangedIntegersRejectValuesOutsideTheRange) {
  // Values a narrowing cast would truncate (2^32 + 1 as an int is 1) or
  // that would fail far from the flag (a negative size or thread count).
  const char* argv[] = {"prog",    "--epochs",  "4294967297",
                        "--train-size=-5",      "--threads", "-1",
                        "--low=0", "--high=10", "--seed=7"};
  CliFlags flags(9, argv);
  EXPECT_EQ(message([&] { flags.get_int("epochs", 6, 0, 10000); }),
            "flag --epochs must lie in [0, 10000]: 4294967297");
  EXPECT_EQ(message([&] {
              flags.get_int("train-size", std::int64_t{100}, 1, 1000000);
            }),
            "flag --train-size must lie in [1, 1000000]: -5");
  EXPECT_EQ(message([&] {
              flags.get_int("threads", std::size_t{0}, 0,
                            ThreadPool::kMaxThreads);
            }),
            "flag --threads must lie in [0, 256]: -1");
  // Both bounds are accepted, and a missing flag yields the fallback.
  EXPECT_EQ(flags.get_int("low", 5, 0, 10), 0);
  EXPECT_EQ(flags.get_int("high", 5, 0, 10), 10);
  EXPECT_EQ(flags.get_int("absent", 3, 0, 10), 3);
  // The value comes back in the fallback's type.
  const auto seed = flags.get_int("seed", std::uint64_t{42}, 0, 100);
  static_assert(std::is_same_v<decltype(seed), const std::uint64_t>);
  EXPECT_EQ(seed, 7u);
  EXPECT_NO_THROW(flags.check_unused());
}

TEST(TableTest, AlignedRender) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2.5"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, RowWidthChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TableTest, CsvFormat) {
  Table t({"a", "b"});
  t.add_row_values({1.0, 2.5}, 1);
  EXPECT_EQ(t.to_csv(), "a,b\n1.0,2.5\n");
}

TEST(TableTest, WriteCsvCreatesFile) {
  Table t({"x"});
  t.add_row({"1"});
  const std::string path = "/tmp/con_table_test.csv";
  t.write_csv(path);
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove(path);
}

TEST(FormatDouble, Precision) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(-0.5, 3), "-0.500");
}

// ---- ascii plots ------------------------------------------------------------

TEST(AsciiPlot, RendersAllSeriesAndLegend) {
  std::vector<double> xs = {1.0, 0.5, 0.1};
  std::vector<util::Series> series = {
      {"alpha", {0.9, 0.8, 0.3}},
      {"beta", {0.1, 0.2, 0.7}},
  };
  const std::string plot = util::render_plot(xs, series);
  EXPECT_NE(plot.find('*'), std::string::npos);
  EXPECT_NE(plot.find('o'), std::string::npos);
  EXPECT_NE(plot.find("alpha"), std::string::npos);
  EXPECT_NE(plot.find("beta"), std::string::npos);
}

TEST(AsciiPlot, AutoYRangeCoversData) {
  std::vector<double> xs = {0.0, 1.0};
  std::vector<util::Series> series = {{"s", {-5.0, 10.0}}};
  util::PlotOptions opt;
  opt.auto_y = true;
  const std::string plot = util::render_plot(xs, series, opt);
  EXPECT_NE(plot.find("10.00"), std::string::npos);
  EXPECT_NE(plot.find("-5.00"), std::string::npos);
}

TEST(AsciiPlot, ValidatesInput) {
  EXPECT_THROW(util::render_plot({1.0}, {{"s", {1.0}}}),
               std::invalid_argument);
  EXPECT_THROW(util::render_plot({1.0, 2.0}, {}), std::invalid_argument);
  EXPECT_THROW(util::render_plot({1.0, 2.0}, {{"s", {1.0}}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace con::util

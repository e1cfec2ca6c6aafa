#include <gtest/gtest.h>

#include <algorithm>

#include "data/synth_digits.h"
#include "data/synth_objects.h"
#include "tensor/ops.h"

namespace con::data {
namespace {

TEST(SynthDigits, ShapesAndRanges) {
  SynthDigitsConfig c;
  c.train_size = 50;
  c.test_size = 20;
  TrainTestSplit split = make_synth_digits(c);
  EXPECT_EQ(split.train.images.shape(), tensor::Shape({50, 1, 28, 28}));
  EXPECT_EQ(split.test.images.shape(), tensor::Shape({20, 1, 28, 28}));
  EXPECT_GE(tensor::min_value(split.train.images), 0.0f);
  EXPECT_LE(tensor::max_value(split.train.images), 1.0f);
}

TEST(SynthDigits, BalancedLabels) {
  SynthDigitsConfig c;
  c.train_size = 100;
  c.test_size = 10;
  TrainTestSplit split = make_synth_digits(c);
  std::vector<int> counts(10, 0);
  for (int y : split.train.labels) counts[static_cast<std::size_t>(y)]++;
  for (int cnt : counts) EXPECT_EQ(cnt, 10);
}

TEST(SynthDigits, DeterministicInSeed) {
  SynthDigitsConfig c;
  c.train_size = 10;
  c.test_size = 10;
  TrainTestSplit a = make_synth_digits(c);
  TrainTestSplit b = make_synth_digits(c);
  for (tensor::Index i = 0; i < a.train.images.numel(); ++i) {
    ASSERT_EQ(a.train.images[i], b.train.images[i]);
  }
}

TEST(SynthDigits, DifferentSeedsProduceDifferentImages) {
  SynthDigitsConfig a;
  a.train_size = 10;
  a.test_size = 10;
  SynthDigitsConfig b = a;
  b.seed = a.seed + 1;
  TrainTestSplit sa = make_synth_digits(a);
  TrainTestSplit sb = make_synth_digits(b);
  float max_diff = 0.0f;
  for (tensor::Index i = 0; i < sa.train.images.numel(); ++i) {
    max_diff = std::max(max_diff,
                        std::fabs(sa.train.images[i] - sb.train.images[i]));
  }
  EXPECT_GT(max_diff, 0.1f);
}

TEST(SynthDigits, TrainAndTestDisjointStreams) {
  SynthDigitsConfig c;
  c.train_size = 10;
  c.test_size = 10;
  TrainTestSplit s = make_synth_digits(c);
  // Same class, same index, but different stream: images must differ.
  float max_diff = 0.0f;
  for (tensor::Index i = 0; i < s.train.images.numel(); ++i) {
    max_diff =
        std::max(max_diff, std::fabs(s.train.images[i] - s.test.images[i]));
  }
  EXPECT_GT(max_diff, 0.1f);
}

TEST(SynthDigits, GlyphsCarrySignal) {
  // The mean ink of a rendered digit must be well above background noise.
  util::Rng rng(1);
  SynthDigitsConfig c;
  for (int d = 0; d < 10; ++d) {
    tensor::Tensor img = render_digit(d, rng, c);
    EXPECT_GT(tensor::mean(img), 0.05f) << "digit " << d;
    EXPECT_LT(tensor::mean(img), 0.6f) << "digit " << d;
  }
}

TEST(SynthDigits, RejectsBadClass) {
  util::Rng rng(1);
  SynthDigitsConfig c;
  EXPECT_THROW(render_digit(-1, rng, c), std::invalid_argument);
  EXPECT_THROW(render_digit(10, rng, c), std::invalid_argument);
}

TEST(SynthObjects, ShapesAndRanges) {
  SynthObjectsConfig c;
  c.train_size = 30;
  c.test_size = 10;
  TrainTestSplit split = make_synth_objects(c);
  EXPECT_EQ(split.train.images.shape(), tensor::Shape({30, 3, 32, 32}));
  EXPECT_GE(tensor::min_value(split.train.images), 0.0f);
  EXPECT_LE(tensor::max_value(split.train.images), 1.0f);
}

TEST(SynthObjects, DeterministicInSeed) {
  SynthObjectsConfig c;
  c.train_size = 10;
  c.test_size = 10;
  TrainTestSplit a = make_synth_objects(c);
  TrainTestSplit b = make_synth_objects(c);
  for (tensor::Index i = 0; i < a.train.images.numel(); ++i) {
    ASSERT_EQ(a.train.images[i], b.train.images[i]);
  }
}

TEST(SynthObjects, AllClassesRender) {
  util::Rng rng(2);
  SynthObjectsConfig c;
  for (int cls = 0; cls < kObjectClasses; ++cls) {
    tensor::Tensor img = render_object(cls, rng, c);
    EXPECT_EQ(img.shape(), tensor::Shape({3, 32, 32}));
    // Every image must have spatial structure (not a flat colour): per-pixel
    // variance above the noise floor.
    const float m = tensor::mean(img);
    double var = 0.0;
    for (float v : img.flat()) var += double(v - m) * (v - m);
    var /= static_cast<double>(img.numel());
    EXPECT_GT(var, 0.004) << "class " << cls;
  }
}

TEST(SynthObjects, RejectsBadClass) {
  util::Rng rng(1);
  SynthObjectsConfig c;
  EXPECT_THROW(render_object(10, rng, c), std::invalid_argument);
}

TEST(DatasetTest, TakeReturnsPrefix) {
  SynthDigitsConfig c;
  c.train_size = 20;
  c.test_size = 10;
  TrainTestSplit s = make_synth_digits(c);
  Dataset sub = s.train.take(5);
  EXPECT_EQ(sub.size(), 5);
  EXPECT_EQ(sub.labels.size(), 5u);
  for (tensor::Index i = 0; i < 5; ++i) {
    EXPECT_EQ(sub.labels[static_cast<std::size_t>(i)],
              s.train.labels[static_cast<std::size_t>(i)]);
  }
  EXPECT_THROW(s.train.take(21), std::out_of_range);
}

TEST(DatasetTest, NumClasses) {
  // The class count is the generator's declared one, not the largest label
  // present, and take() keeps it: the first 8 samples carry labels 0..7.
  SynthDigitsConfig c;
  c.train_size = 20;
  c.test_size = 20;
  const TrainTestSplit s = make_synth_digits(c);
  EXPECT_EQ(s.train.num_classes(), kDigitClasses);
  const Dataset sub = s.test.take(8);
  EXPECT_EQ(*std::max_element(sub.labels.begin(), sub.labels.end()), 7);
  EXPECT_EQ(sub.num_classes(), kDigitClasses);
  const TrainTestSplit objects =
      make_synth_objects(SynthObjectsConfig{.train_size = 20, .test_size = 20});
  EXPECT_EQ(objects.test.take(3).num_classes(), kObjectClasses);
}

TEST(DatasetTest, ValidateCatchesBadLabels) {
  Dataset ds;
  ds.images = tensor::Tensor({2, 1, 2, 2});
  ds.labels = {0, 7};
  EXPECT_THROW(validate_dataset(ds, 5), std::logic_error);
}

TEST(DatasetTest, ValidateCatchesPixelRange) {
  Dataset ds;
  ds.images = tensor::Tensor({1, 1, 2, 2}, 2.0f);
  ds.labels = {0};
  EXPECT_THROW(validate_dataset(ds, 10), std::logic_error);
}

}  // namespace
}  // namespace con::data

#include "data/synth_digits.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "tensor/ops.h"

namespace con::data {

namespace {

// Classic 5x7 bitmap font, one row-string per scanline, '#' = ink.
constexpr std::array<std::array<const char*, 7>, 10> kGlyphs = {{
    // 0
    {{" ### ", "#   #", "#  ##", "# # #", "##  #", "#   #", " ### "}},
    // 1
    {{"  #  ", " ##  ", "  #  ", "  #  ", "  #  ", "  #  ", " ### "}},
    // 2
    {{" ### ", "#   #", "    #", "   # ", "  #  ", " #   ", "#####"}},
    // 3
    {{" ### ", "#   #", "    #", "  ## ", "    #", "#   #", " ### "}},
    // 4
    {{"   # ", "  ## ", " # # ", "#  # ", "#####", "   # ", "   # "}},
    // 5
    {{"#####", "#    ", "#### ", "    #", "    #", "#   #", " ### "}},
    // 6
    {{" ### ", "#    ", "#    ", "#### ", "#   #", "#   #", " ### "}},
    // 7
    {{"#####", "    #", "   # ", "  #  ", "  #  ", "  #  ", "  #  "}},
    // 8
    {{" ### ", "#   #", "#   #", " ### ", "#   #", "#   #", " ### "}},
    // 9
    {{" ### ", "#   #", "#   #", " ####", "    #", "    #", " ### "}},
}};

constexpr int kGlyphW = 5;
constexpr int kGlyphH = 7;

// Bilinear sample of the glyph bitmap at continuous glyph coordinates.
float sample_glyph(int digit, float gx, float gy) {
  const auto& glyph = kGlyphs[static_cast<std::size_t>(digit)];
  auto ink = [&](int x, int y) -> float {
    if (x < 0 || x >= kGlyphW || y < 0 || y >= kGlyphH) return 0.0f;
    return glyph[static_cast<std::size_t>(y)][x] == '#' ? 1.0f : 0.0f;
  };
  const int x0 = static_cast<int>(std::floor(gx));
  const int y0 = static_cast<int>(std::floor(gy));
  const float fx = gx - static_cast<float>(x0);
  const float fy = gy - static_cast<float>(y0);
  const float top = ink(x0, y0) * (1 - fx) + ink(x0 + 1, y0) * fx;
  const float bot = ink(x0, y0 + 1) * (1 - fx) + ink(x0 + 1, y0 + 1) * fx;
  return top * (1 - fy) + bot * fy;
}

}  // namespace

Tensor render_digit(int digit, con::util::Rng& rng,
                    const SynthDigitsConfig& config) {
  if (digit < 0 || digit >= kDigitClasses) {
    throw std::invalid_argument("render_digit: class out of range");
  }
  const Index s = kDigitImageSize;
  Tensor img({1, s, s});

  // Random affine parameters.
  const float theta = rng.uniform_f(-config.max_rotation, config.max_rotation);
  const float scale_x = rng.uniform_f(config.min_scale, config.max_scale);
  const float scale_y = rng.uniform_f(config.min_scale, config.max_scale);
  const float shear = rng.uniform_f(-config.max_shear, config.max_shear);
  const float shift_x = rng.uniform_f(-config.max_shift, config.max_shift);
  const float shift_y = rng.uniform_f(-config.max_shift, config.max_shift);
  const float ink_level = rng.uniform_f(0.75f, 1.0f);
  const float bg_level = rng.uniform_f(0.0f, 0.08f);

  // Nominal glyph box occupies the central ~20x24 pixels of the 28x28
  // canvas; map output pixel -> glyph coordinates through the inverse
  // affine transform around the canvas centre.
  const float cx = static_cast<float>(s) / 2.0f;
  const float cy = static_cast<float>(s) / 2.0f;
  const float pixels_per_cell_x = 3.6f * scale_x;
  const float pixels_per_cell_y = 3.2f * scale_y;
  const float cos_t = std::cos(theta);
  const float sin_t = std::sin(theta);

  float* d = img.data();
  for (Index y = 0; y < s; ++y) {
    for (Index x = 0; x < s; ++x) {
      // Translate to centre, unrotate, unshear, unscale.
      const float ux = static_cast<float>(x) - cx - shift_x;
      const float uy = static_cast<float>(y) - cy - shift_y;
      const float rx = cos_t * ux + sin_t * uy;
      const float ry = -sin_t * ux + cos_t * uy;
      const float sx = rx - shear * ry;
      const float gx = sx / pixels_per_cell_x + kGlyphW / 2.0f - 0.5f;
      const float gy = ry / pixels_per_cell_y + kGlyphH / 2.0f - 0.5f;
      float v = sample_glyph(digit, gx, gy) * ink_level + bg_level;
      v += rng.normal_f(0.0f, config.noise_stddev);
      d[y * s + x] = std::clamp(v, 0.0f, 1.0f);
    }
  }
  return img;
}

TrainTestSplit make_synth_digits(const SynthDigitsConfig& config) {
  con::util::Rng train_rng(config.seed, "synth-digits-train");
  con::util::Rng test_rng(config.seed, "synth-digits-test");

  auto build = [&](Index n, con::util::Rng& rng) {
    Dataset ds;
    ds.images = Tensor({n, 1, kDigitImageSize, kDigitImageSize});
    ds.classes = kDigitClasses;
    ds.labels.resize(static_cast<std::size_t>(n));
    for (Index i = 0; i < n; ++i) {
      const int digit = static_cast<int>(i % kDigitClasses);
      tensor::set_batch(ds.images, i, render_digit(digit, rng, config));
      ds.labels[static_cast<std::size_t>(i)] = digit;
    }
    return ds;
  };

  TrainTestSplit split;
  split.train = build(config.train_size, train_rng);
  split.test = build(config.test_size, test_rng);
  validate_dataset(split.train, kDigitClasses);
  validate_dataset(split.test, kDigitClasses);
  return split;
}

}  // namespace con::data

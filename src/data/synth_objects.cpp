#include "data/synth_objects.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/ops.h"

namespace con::data {

namespace {

struct Rgb {
  float r, g, b;
};

Rgb random_color(con::util::Rng& rng, float lo, float hi) {
  return Rgb{rng.uniform_f(lo, hi), rng.uniform_f(lo, hi),
             rng.uniform_f(lo, hi)};
}

// Ensure foreground and background are far enough apart to be learnable.
Rgb contrasting_color(con::util::Rng& rng, const Rgb& other) {
  for (int attempt = 0; attempt < 16; ++attempt) {
    Rgb c = random_color(rng, 0.0f, 1.0f);
    const float dist = std::fabs(c.r - other.r) + std::fabs(c.g - other.g) +
                       std::fabs(c.b - other.b);
    if (dist > 0.8f) return c;
  }
  return Rgb{1.0f - other.r, 1.0f - other.g, 1.0f - other.b};
}

}  // namespace

Tensor render_object(int cls, con::util::Rng& rng,
                     const SynthObjectsConfig& config) {
  if (cls < 0 || cls >= kObjectClasses) {
    throw std::invalid_argument("render_object: class out of range");
  }
  const Index s = kObjectImageSize;
  Tensor img({3, s, s});

  const Rgb bg = random_color(rng, 0.0f, 1.0f);
  const Rgb fg = contrasting_color(rng, bg);
  const float cx = rng.uniform_f(12.0f, 20.0f);
  const float cy = rng.uniform_f(12.0f, 20.0f);
  const float radius = rng.uniform_f(7.0f, 11.0f);
  const float angle = rng.uniform_f(0.0f, 6.2831853f);
  const float period = rng.uniform_f(4.0f, 7.0f);
  const float phase = rng.uniform_f(0.0f, period);
  const float cos_a = std::cos(angle), sin_a = std::sin(angle);

  // Coverage in [0,1]: how much of pixel (x, y) is foreground.
  auto coverage = [&](float x, float y) -> float {
    const float dx = x - cx, dy = y - cy;
    switch (cls) {
      case 0: {  // disc
        const float d = std::sqrt(dx * dx + dy * dy);
        return std::clamp(radius - d + 0.5f, 0.0f, 1.0f);
      }
      case 1: {  // rotated square
        const float rx = cos_a * dx + sin_a * dy;
        const float ry = -sin_a * dx + cos_a * dy;
        const float d = std::max(std::fabs(rx), std::fabs(ry));
        return std::clamp(radius - d + 0.5f, 0.0f, 1.0f);
      }
      case 2: {  // upward triangle (rotated)
        const float rx = cos_a * dx + sin_a * dy;
        const float ry = -sin_a * dx + cos_a * dy;
        // Triangle as intersection of three half-planes.
        const float d1 = ry + radius * 0.5f;                       // bottom
        const float d2 = -0.866f * rx - 0.5f * ry + radius * 0.5f;  // right
        const float d3 = 0.866f * rx - 0.5f * ry + radius * 0.5f;   // left
        const float d = std::min({d1, d2, d3});
        return std::clamp(d + 0.5f, 0.0f, 1.0f);
      }
      case 3:  // horizontal stripes
        return std::fmod(y + phase, period) < period * 0.5f ? 1.0f : 0.0f;
      case 4:  // vertical stripes
        return std::fmod(x + phase, period) < period * 0.5f ? 1.0f : 0.0f;
      case 5: {  // checkerboard
        const bool a = std::fmod(x + phase, period) < period * 0.5f;
        const bool b = std::fmod(y + phase, period) < period * 0.5f;
        return a == b ? 1.0f : 0.0f;
      }
      case 6: {  // radial gradient blob
        const float d = std::sqrt(dx * dx + dy * dy);
        return std::clamp(1.0f - d / (radius * 1.6f), 0.0f, 1.0f);
      }
      case 7: {  // annulus
        const float d = std::sqrt(dx * dx + dy * dy);
        const float band = radius * 0.35f;
        return std::clamp(band - std::fabs(d - radius * 0.8f) + 0.5f, 0.0f,
                          1.0f);
      }
      case 8: {  // plus / cross
        const float rx = std::fabs(cos_a * dx + sin_a * dy);
        const float ry = std::fabs(-sin_a * dx + cos_a * dy);
        const float arm = radius * 0.38f;
        const float in_x = std::min(arm - rx, radius - ry);
        const float in_y = std::min(arm - ry, radius - rx);
        return std::clamp(std::max(in_x, in_y) + 0.5f, 0.0f, 1.0f);
      }
      case 9: {  // diagonal stripes
        const float t = (x + y) * 0.7071f;
        return std::fmod(t + phase, period) < period * 0.5f ? 1.0f : 0.0f;
      }
      default:
        return 0.0f;
    }
  };

  float* d = img.data();
  const Index plane = s * s;
  for (Index y = 0; y < s; ++y) {
    for (Index x = 0; x < s; ++x) {
      const float c =
          coverage(static_cast<float>(x), static_cast<float>(y));
      const float r = bg.r + (fg.r - bg.r) * c + rng.normal_f(0.0f, config.noise_stddev);
      const float g = bg.g + (fg.g - bg.g) * c + rng.normal_f(0.0f, config.noise_stddev);
      const float b = bg.b + (fg.b - bg.b) * c + rng.normal_f(0.0f, config.noise_stddev);
      d[0 * plane + y * s + x] = std::clamp(r, 0.0f, 1.0f);
      d[1 * plane + y * s + x] = std::clamp(g, 0.0f, 1.0f);
      d[2 * plane + y * s + x] = std::clamp(b, 0.0f, 1.0f);
    }
  }
  return img;
}

TrainTestSplit make_synth_objects(const SynthObjectsConfig& config) {
  con::util::Rng train_rng(config.seed, "synth-objects-train");
  con::util::Rng test_rng(config.seed, "synth-objects-test");

  auto build = [&](Index n, con::util::Rng& rng) {
    Dataset ds;
    ds.images = Tensor({n, 3, kObjectImageSize, kObjectImageSize});
    ds.classes = kObjectClasses;
    ds.labels.resize(static_cast<std::size_t>(n));
    for (Index i = 0; i < n; ++i) {
      const int cls = static_cast<int>(i % kObjectClasses);
      tensor::set_batch(ds.images, i, render_object(cls, rng, config));
      ds.labels[static_cast<std::size_t>(i)] = cls;
    }
    return ds;
  };

  TrainTestSplit split;
  split.train = build(config.train_size, train_rng);
  split.test = build(config.test_size, test_rng);
  validate_dataset(split.train, kObjectClasses);
  validate_dataset(split.test, kObjectClasses);
  return split;
}

}  // namespace con::data

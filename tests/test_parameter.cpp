// nn::Parameter's write contract: value, mask and transform change only
// through set_value / set_mask / set_transform / edit, each of which bumps
// the version the packed-weight cache keys on (nn/packed_weights.h). The
// static_asserts below fail the build if a public write path that skips
// the bump comes back; the tests pin the mutators' runtime checks.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "nn/parameter.h"

namespace con::nn {
namespace {

using tensor::Tensor;
using TransformPtr = std::shared_ptr<const WeightTransform>;

template <class R>
concept MutableRef = std::is_lvalue_reference_v<R> &&
                     !std::is_const_v<std::remove_reference_t<R>>;

// True when code outside the class can reach the field for writing: as a
// public data member, or through an accessor returning a mutable reference.
template <class P>
concept ValueWritable =
    requires(P& p) { p.value; } ||
    requires(P& p) { requires MutableRef<decltype(p.value())>; };
template <class P>
concept MaskWritable =
    requires(P& p) { p.mask; } ||
    requires(P& p) { requires MutableRef<decltype(p.mask())>; };
template <class P>
concept TransformWritable =
    requires(P& p) { p.transform; } ||
    requires(P& p) { requires MutableRef<decltype(p.transform())>; };
template <class P>
concept VersionWritable =
    requires(P& p) { p.version; } ||
    requires(P& p) { requires MutableRef<decltype(p.version())>; } ||
    requires(P& p) { p.bump_version(); };

static_assert(!ValueWritable<Parameter>, "value writable without a bump");
static_assert(!MaskWritable<Parameter>, "mask writable without a bump");
static_assert(!TransformWritable<Parameter>,
              "transform writable without a bump");
static_assert(!VersionWritable<Parameter>,
              "version writable from outside Parameter");

// The shape of the old public-field Parameter: every guard must fire on it,
// so none of them passes vacuously.
struct OpenParameter {
  Tensor value;
  Tensor mask;
  TransformPtr transform;
  std::uint64_t version = 1;
  void bump_version() { ++version; }
};
static_assert(ValueWritable<OpenParameter> && MaskWritable<OpenParameter> &&
              TransformWritable<OpenParameter> &&
              VersionWritable<OpenParameter>);

TEST(Parameter, SetMaskRejectsAMaskOfAnotherShape) {
  Parameter p("fc.weight", Tensor({2, 3}));
  const std::uint64_t v = p.version();
  try {
    p.set_mask(Tensor({3, 2}, 1.0f));
    FAIL() << "a [3, 2] mask on a [2, 3] value must throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("fc.weight"), std::string::npos) << msg;
  }
  EXPECT_FALSE(p.has_mask()) << "a refused mask must not be attached";
  EXPECT_EQ(p.version(), v);

  // The rule holds from the value's side too, and for in-place edits.
  p.set_mask(Tensor({2, 3}, 1.0f));
  EXPECT_THROW(p.set_value(Tensor({6})), std::invalid_argument);
  EXPECT_EQ(p.value().shape(), tensor::Shape({2, 3}));
  EXPECT_THROW(p.edit([](Tensor&, Tensor& mask) { mask = Tensor({6}); }),
               std::invalid_argument);

  // Detaching the mask first makes a reshape legal.
  p.set_mask(Tensor());
  p.set_value(Tensor({6}));
  EXPECT_EQ(p.value().shape(), tensor::Shape({6}));
}

}  // namespace
}  // namespace con::nn

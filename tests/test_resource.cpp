#include "model/resource.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace sparcle {
namespace {

TEST(ResourceSchema, CpuOnlyHasOneType) {
  const ResourceSchema s = ResourceSchema::cpu_only();
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.name(0), "cpu");
}

TEST(ResourceSchema, CpuMemoryHasTwoTypes) {
  const ResourceSchema s = ResourceSchema::cpu_memory();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.name(0), "cpu");
  EXPECT_EQ(s.name(1), "memory");
}

TEST(ResourceSchema, EqualityComparesNames) {
  EXPECT_EQ(ResourceSchema::cpu_only(), ResourceSchema::cpu_only());
  EXPECT_NE(ResourceSchema::cpu_only(), ResourceSchema::cpu_memory());
}

TEST(ResourceSchema, RejectsMoreTypesThanAVectorHolds) {
  std::vector<std::string> names;
  for (std::size_t r = 0; r < ResourceVector::kMax; ++r)
    names.push_back("r" + std::to_string(r));
  EXPECT_EQ(ResourceSchema(names).size(), ResourceVector::kMax);
  names.push_back("one_too_many");
  EXPECT_THROW(ResourceSchema{names}, std::invalid_argument);
}

TEST(ResourceVector, ScalarConstructsSingleEntry) {
  const ResourceVector v = ResourceVector::scalar(7.5);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_DOUBLE_EQ(v[0], 7.5);
}

TEST(ResourceVector, FillConstructor) {
  const ResourceVector v(3, 2.0);
  ASSERT_EQ(v.size(), 3u);
  for (std::size_t r = 0; r < 3; ++r) EXPECT_DOUBLE_EQ(v[r], 2.0);
}

TEST(ResourceVector, AdditionIsComponentWise) {
  const ResourceVector a{1.0, 2.0};
  const ResourceVector b{10.0, 20.0};
  const ResourceVector c = a + b;
  EXPECT_DOUBLE_EQ(c[0], 11.0);
  EXPECT_DOUBLE_EQ(c[1], 22.0);
}

TEST(ResourceVector, SubtractionIsComponentWise) {
  const ResourceVector a{5.0, 7.0};
  const ResourceVector b{1.0, 2.0};
  const ResourceVector c = a - b;
  EXPECT_DOUBLE_EQ(c[0], 4.0);
  EXPECT_DOUBLE_EQ(c[1], 5.0);
}

TEST(ResourceVector, ScalarMultiplication) {
  const ResourceVector a{2.0, 3.0};
  const ResourceVector c = a * 2.5;
  EXPECT_DOUBLE_EQ(c[0], 5.0);
  EXPECT_DOUBLE_EQ(c[1], 7.5);
}

TEST(ResourceVector, SizeMismatchThrows) {
  ResourceVector a{1.0};
  const ResourceVector b{1.0, 2.0};
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a -= b, std::invalid_argument);
}

TEST(ResourceVector, IsZeroDetectsZeros) {
  EXPECT_TRUE(ResourceVector({0.0, 0.0}).is_zero());
  EXPECT_FALSE(ResourceVector({0.0, 0.1}).is_zero());
  EXPECT_TRUE(ResourceVector({1e-12, -1e-12}).is_zero(1e-9));
}

TEST(ResourceVector, ClampNonnegativeZeroesNegatives) {
  ResourceVector v{-1.0, 2.0};
  v.clamp_nonnegative();
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], 2.0);
}

TEST(ResourceVector, MaxComponent) {
  EXPECT_DOUBLE_EQ(ResourceVector({1.0, 5.0, 3.0}).max_component(), 5.0);
  EXPECT_DOUBLE_EQ(ResourceVector({-2.0}).max_component(), 0.0);
}

TEST(ResourceVector, OutOfRangeIndexThrows) {
  const ResourceVector v{1.0};
  EXPECT_THROW(v[3], std::out_of_range);
}

TEST(ResourceVector, EqualityIsValueBased) {
  EXPECT_EQ(ResourceVector({1.0, 2.0}), ResourceVector({1.0, 2.0}));
  EXPECT_NE(ResourceVector({1.0, 2.0}), ResourceVector({1.0, 3.0}));
}

TEST(ResourceVector, HoldsAtMostKMaxComponents) {
  static_assert(ResourceVector::kMax == 4);
  const ResourceVector full(ResourceVector::kMax, 1.0);
  EXPECT_EQ(full.size(), ResourceVector::kMax);
  EXPECT_EQ(ResourceVector({1.0, 2.0, 3.0, 4.0}).size(), 4u);
  EXPECT_THROW(ResourceVector(ResourceVector::kMax + 1),
               std::invalid_argument);
  EXPECT_THROW(ResourceVector(ResourceVector::kMax + 1, 2.0),
               std::invalid_argument);
  EXPECT_THROW((ResourceVector{1.0, 2.0, 3.0, 4.0, 5.0}),
               std::invalid_argument);
}

TEST(ResourceVector, CopyDoesNotAliasItsSource) {
  ResourceVector a{1.0, 2.0, 3.0};
  ResourceVector b = a;
  b[1] = 20.0;
  b += ResourceVector{1.0, 1.0, 1.0};
  EXPECT_EQ(a, ResourceVector({1.0, 2.0, 3.0}));
  EXPECT_EQ(b, ResourceVector({2.0, 21.0, 4.0}));
  ResourceVector c{9.0};
  c = a;
  a *= 0.0;
  EXPECT_EQ(c, ResourceVector({1.0, 2.0, 3.0}));
}

TEST(ResourceVector, SizeIsPartOfEquality) {
  // Equal leading components, different sizes: the zero tail of the
  // shorter vector must not make them compare equal.
  EXPECT_NE(ResourceVector({1.0}), ResourceVector({1.0, 0.0}));
  EXPECT_THROW(ResourceVector({1.0, 2.0})[2], std::out_of_range);
}

}  // namespace
}  // namespace sparcle

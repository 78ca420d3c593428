#include "tensor/shape.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace ams {
namespace {

TEST(ShapeTest, DefaultIsScalar) {
    Shape s;
    EXPECT_EQ(s.rank(), 0u);
    EXPECT_EQ(s.numel(), 1u);
    EXPECT_TRUE(s.strides().empty());
}

TEST(ShapeTest, NumelIsProductOfDims) {
    EXPECT_EQ(Shape({2, 3, 4}).numel(), 24u);
    EXPECT_EQ(Shape({7}).numel(), 7u);
    EXPECT_EQ(Shape({5, 0, 2}).numel(), 0u);
}

TEST(ShapeTest, RowMajorStrides) {
    const Shape s{2, 3, 4};
    const auto strides = s.strides();
    ASSERT_EQ(strides.size(), 3u);
    EXPECT_EQ(strides[0], 12u);
    EXPECT_EQ(strides[1], 4u);
    EXPECT_EQ(strides[2], 1u);
}

TEST(ShapeTest, OffsetMatchesStrides) {
    const Shape s{2, 3, 4};
    EXPECT_EQ(s.offset({0, 0, 0}), 0u);
    EXPECT_EQ(s.offset({0, 0, 3}), 3u);
    EXPECT_EQ(s.offset({0, 2, 1}), 9u);
    EXPECT_EQ(s.offset({1, 2, 3}), 23u);
}

TEST(ShapeTest, OffsetRejectsRankMismatch) {
    const Shape s{2, 3};
    EXPECT_THROW((void)s.offset({1}), std::invalid_argument);
    EXPECT_THROW((void)s.offset({1, 1, 1}), std::invalid_argument);
}

TEST(ShapeTest, OffsetRejectsOutOfRange) {
    const Shape s{2, 3};
    EXPECT_THROW((void)s.offset({2, 0}), std::invalid_argument);
    EXPECT_THROW((void)s.offset({0, 3}), std::invalid_argument);
}

TEST(ShapeTest, EqualityComparesDims) {
    EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
    EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
    EXPECT_NE(Shape({2, 3}), Shape({2, 3, 1}));
}

TEST(ShapeTest, StrFormatsDims) {
    EXPECT_EQ(Shape({2, 3, 4}).str(), "[2, 3, 4]");
    EXPECT_EQ(Shape().str(), "[]");
}

TEST(ShapeTest, DimBoundsChecked) {
    const Shape s{2, 3};
    EXPECT_EQ(s.dim(1), 3u);
    EXPECT_THROW((void)s.dim(2), std::out_of_range);
}

class ShapeOffsetRoundTrip : public ::testing::TestWithParam<std::vector<std::size_t>> {};

TEST_P(ShapeOffsetRoundTrip, EnumeratesAllOffsetsExactlyOnce) {
    const Shape s(GetParam());
    std::vector<bool> seen(s.numel(), false);
    std::vector<std::size_t> idx(s.rank(), 0);
    for (std::size_t count = 0; count < s.numel(); ++count) {
        const std::size_t off = s.offset(idx);
        ASSERT_LT(off, s.numel());
        EXPECT_FALSE(seen[off]);
        seen[off] = true;
        // Increment the multi-index, last dimension fastest.
        for (std::size_t d = s.rank(); d-- > 0;) {
            if (++idx[d] < s.dim(d)) break;
            idx[d] = 0;
        }
    }
    for (bool b : seen) EXPECT_TRUE(b);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ShapeOffsetRoundTrip,
                         ::testing::Values(std::vector<std::size_t>{4},
                                           std::vector<std::size_t>{2, 3},
                                           std::vector<std::size_t>{2, 3, 4},
                                           std::vector<std::size_t>{1, 5, 1, 2}));

}  // namespace
}  // namespace ams

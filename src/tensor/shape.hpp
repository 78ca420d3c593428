// Shape: dimension list and indexing arithmetic for dense row-major tensors.
#pragma once

#include <array>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace ams {

/// Describes the extents of an N-dimensional dense row-major tensor.
///
/// A Shape is an ordered list of dimension sizes. Rank-0 shapes are valid
/// and denote scalars (numel() == 1). All indexing in the library is
/// row-major: the last dimension varies fastest.
///
/// Dimensions are stored inline (no heap allocation) so that constructing
/// and copying shapes on the inference hot path never touches the
/// allocator; ranks above kMaxRank are rejected at construction.
class Shape {
public:
    /// Maximum supported rank. 8 covers everything the library builds
    /// (NCHW activations, OIHW weights, flattened GEMM operands) with room
    /// to spare.
    static constexpr std::size_t kMaxRank = 8;

    Shape() = default;
    Shape(std::initializer_list<std::size_t> dims) { assign(dims.begin(), dims.size()); }
    explicit Shape(std::span<const std::size_t> dims) { assign(dims.data(), dims.size()); }

    /// Number of dimensions (0 for a scalar shape).
    [[nodiscard]] std::size_t rank() const { return rank_; }

    /// Size of dimension `axis`; throws std::out_of_range if invalid.
    [[nodiscard]] std::size_t dim(std::size_t axis) const;

    /// Total number of elements (product of all dims; 1 for scalars).
    [[nodiscard]] std::size_t numel() const;

    /// Row-major strides, in elements. Empty for scalars.
    [[nodiscard]] std::vector<std::size_t> strides() const;

    /// Flat row-major offset of a multidimensional index.
    /// Throws std::invalid_argument on rank mismatch or out-of-range index.
    [[nodiscard]] std::size_t offset(const std::vector<std::size_t>& index) const;

    /// Inline view of the dimension sizes (valid while the Shape lives).
    [[nodiscard]] std::span<const std::size_t> dims() const { return {dims_.data(), rank_}; }

    /// Human-readable form, e.g. "[2, 3, 4]".
    [[nodiscard]] std::string str() const;

    friend bool operator==(const Shape& a, const Shape& b) {
        if (a.rank_ != b.rank_) return false;
        for (std::size_t i = 0; i < a.rank_; ++i) {
            if (a.dims_[i] != b.dims_[i]) return false;
        }
        return true;
    }
    friend bool operator!=(const Shape& a, const Shape& b) { return !(a == b); }

private:
    void assign(const std::size_t* dims, std::size_t count);

    std::array<std::size_t, kMaxRank> dims_{};
    std::size_t rank_ = 0;
};

}  // namespace ams

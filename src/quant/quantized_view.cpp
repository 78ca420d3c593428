#include "quant/quantized_view.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "quant/dorefa.hpp"
#include "runtime/simd.hpp"

namespace ams::quant {

namespace {

/// Nearest integer code for one value: lround(x * levels) clamped to the
/// representable range. For x already on the grid (x == k / levels) the
/// product re-rounds to exactly k because the relative error of the
/// stored quotient is far below half a code step.
long encode_one(float x, float n, long lo, long hi) {
    return std::clamp(std::lround(x * n), lo, hi);
}

}  // namespace

bool grid_fits_8bit(const QuantGrid& grid) {
    return grid.levels <= (grid.is_signed ? std::size_t{127} : std::size_t{255});
}

// The bulk encoder dispatches through the SIMD layer (the executor
// encodes whole input tensors per int conv step, so this is a hot loop).
// Every simd arm realizes exactly clamp(lround(x * n), ..) — see
// runtime/simd.hpp — so codes stay bit-identical across arms.
void encode_unit_u8(const float* values, std::size_t n, std::size_t levels, std::uint8_t* out) {
    const float scale = checked_levels(levels, "encode_unit_u8");
    simd::encode_unit_u8(values, out, n, scale);
}

QuantizedTensor::QuantizedTensor(const float* values, std::size_t n, QuantGrid grid)
    : grid_(grid), size_(n) {
    (void)checked_levels(grid.levels, "QuantizedTensor");
    if (!grid_fits_8bit(grid_)) {
        throw std::invalid_argument("QuantizedTensor: grid with " + std::to_string(grid.levels) +
                                    (grid.is_signed ? " signed" : " unsigned") +
                                    " levels does not fit 8-bit codes");
    }
    codes_.resize(n);
    if (grid_.is_signed) {
        const float scale = static_cast<float>(grid_.levels);
        const long hi = static_cast<long>(grid_.levels);
        auto* codes = reinterpret_cast<std::int8_t*>(codes_.data());
        for (std::size_t i = 0; i < n; ++i) {
            codes[i] = static_cast<std::int8_t>(encode_one(values[i], scale, -hi, hi));
        }
    } else {
        encode_unit_u8(values, n, grid_.levels, codes_.data());
    }
}

QuantizedView QuantizedTensor::view() const {
    QuantizedView v;
    v.grid = grid_;
    v.size = size_;
    if (grid_.is_signed) {
        v.i8 = reinterpret_cast<const std::int8_t*>(codes_.data());
    } else {
        v.u8 = codes_.data();
    }
    return v;
}

void QuantizedTensor::dequantize_into(float* out) const {
    // Divide rather than multiply by scale(): the canonical grid points
    // are round(x * n) / n (dorefa.cpp), and only correctly-rounded
    // division reproduces them bit-for-bit — k * (1/n) can be off by one
    // ulp for grids like n = 127.
    const float n = static_cast<float>(grid_.levels);
    const QuantizedView v = view();
    if (v.i8 != nullptr) {
        for (std::size_t i = 0; i < size_; ++i) out[i] = static_cast<float>(v.i8[i]) / n;
    } else {
        for (std::size_t i = 0; i < size_; ++i) out[i] = static_cast<float>(v.u8[i]) / n;
    }
}

QuantizedTensor dorefa_quantize_weights_q(const Tensor& w, std::size_t bits) {
    const std::size_t levels = magnitude_levels(bits);  // throws outside [2, 31]
    std::vector<float> q(w.size());
    dorefa_quantize_weights_into(w, bits, q.data());
    return QuantizedTensor(q.data(), q.size(), QuantGrid{levels, /*is_signed=*/true});
}

}  // namespace ams::quant

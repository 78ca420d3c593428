// Integer carrier for the DoReFa grids.
//
// Every quantized value in the network lives on a uniform grid
// k / levels with zero_point = 0: weight magnitudes and QuantAct
// activations span [0, 1] (unsigned codes), QuantInput activations span
// [-1, 1] (signed codes). Because each grid point is exactly
// float(k) / float(levels) and IEEE division is exact-rounded and
// sign-symmetric, the integer code round-trips bit-for-bit:
//
//   encode(float(k) / float(levels)) == k   and
//   decode(encode(x)) == x                  for any on-grid x.
//
// QuantizedView is the non-owning (codes, grid) pair the packed integer
// GEMM path consumes; QuantizedTensor owns the code storage and is what
// the compiler keeps per weight tensor. Both carry the dequantization
// scale 1 / levels so the int32 accumulator of a code×code GEMM
// converts back with one multiply:
//
//   acc = sum_k a_k * b_k   =>   fp32 = float(acc) * (sw * sx).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace ams::quant {

/// One uniform DoReFa grid: values k / levels, zero_point == 0 always
/// (the sign-magnitude convention keeps 0 on-grid), signed codes iff the
/// value range is [-1, 1] rather than [0, 1].
struct QuantGrid {
    std::size_t levels = 0;  ///< magnitude steps; max |code| == levels
    bool is_signed = false;  ///< [-1,1] signed codes vs [0,1] unsigned

    /// Dequantization scale: value = float(code) * scale().
    [[nodiscard]] float scale() const { return 1.0f / static_cast<float>(levels); }

    [[nodiscard]] bool operator==(const QuantGrid& other) const {
        return levels == other.levels && is_signed == other.is_signed;
    }
};

/// Non-owning view of 8-bit integer codes on a grid. Exactly one of the
/// code pointers is non-null: u8 for unsigned grids (levels <= 255), i8
/// for signed grids (levels <= 127).
struct QuantizedView {
    QuantGrid grid;
    std::size_t size = 0;
    const std::uint8_t* u8 = nullptr;
    const std::int8_t* i8 = nullptr;
};

/// Owning 8-bit code storage for one tensor's worth of grid codes; the
/// view() accessor hands out the pointer matching the grid's signedness.
class QuantizedTensor {
public:
    QuantizedTensor() = default;

    /// Encodes `n` on-grid float values (k / levels). Values are clamped
    /// to the representable code range, so off-grid inputs still encode
    /// to the nearest code; on-grid inputs round-trip bit-exactly.
    /// Throws std::invalid_argument when the grid does not fit 8-bit
    /// codes (grid_fits_8bit).
    QuantizedTensor(const float* values, std::size_t n, QuantGrid grid);

    [[nodiscard]] const QuantGrid& grid() const { return grid_; }
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] QuantizedView view() const;

    /// Writes float(code) / float(levels) for every code into `out`
    /// (size() floats) — the bit-exact inverse of encoding on-grid
    /// values (the canonical grid realization is division, dorefa.cpp).
    void dequantize_into(float* out) const;

private:
    QuantGrid grid_{};
    std::size_t size_ = 0;
    std::vector<std::uint8_t> codes_;  ///< u8 codes (reused as i8 bits when signed)
};

/// True when `levels` codes of this signedness fit 8-bit storage.
[[nodiscard]] bool grid_fits_8bit(const QuantGrid& grid);

/// Unit-grid encoder shared by the compiler (weights, once) and the
/// executor (activations, per batch). Inputs must lie in [0, 1]; writes
/// n codes.
void encode_unit_u8(const float* values, std::size_t n, std::size_t levels, std::uint8_t* out);

/// DoReFa weight transform straight to codes: bit-identical to encoding
/// the output of dorefa_quantize_weights_into on the signed grid for
/// `bits`. Throws for bits < 2 or bits > 8 (no 8-bit signed grid).
[[nodiscard]] QuantizedTensor dorefa_quantize_weights_q(const Tensor& w, std::size_t bits);

}  // namespace ams::quant

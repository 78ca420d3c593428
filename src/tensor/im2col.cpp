#include "tensor/im2col.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "runtime/parallel_for.hpp"

namespace ams {

void ConvGeometry::validate() const {
    if (in_channels == 0 || in_h == 0 || in_w == 0) {
        throw std::invalid_argument("ConvGeometry: input dimensions must be nonzero");
    }
    if (kernel_h == 0 || kernel_w == 0) {
        throw std::invalid_argument("ConvGeometry: kernel dimensions must be nonzero");
    }
    if (stride_h == 0 || stride_w == 0) {
        throw std::invalid_argument("ConvGeometry: stride must be nonzero");
    }
    if (in_h + 2 * pad_h < kernel_h || in_w + 2 * pad_w < kernel_w) {
        throw std::invalid_argument("ConvGeometry: kernel larger than padded input");
    }
}

void im2col(const float* image, const ConvGeometry& g, float* columns) {
    const std::size_t oh = g.out_h();
    const std::size_t ow = g.out_w();
    const std::size_t out_spatial = oh * ow;
    const std::size_t patch_rows = g.in_channels * g.kernel_h * g.kernel_w;
    // Each flat row (c, kh, kw) fills its own slice of `columns`, so the
    // row loop parallelizes with no ordering effect on the result.
    runtime::parallel_for(
        0, patch_rows, runtime::suggest_grain(patch_rows, 16),
        [&](std::size_t row_begin, std::size_t row_end) {
            for (std::size_t row = row_begin; row < row_end; ++row) {
                const std::size_t kw = row % g.kernel_w;
                const std::size_t kh = (row / g.kernel_w) % g.kernel_h;
                const std::size_t c = row / (g.kernel_w * g.kernel_h);
                const float* chan = image + c * g.in_h * g.in_w;
                float* out_row = columns + row * out_spatial;
                for (std::size_t oy = 0; oy < oh; ++oy) {
                    // Signed arithmetic: padding can take the tap off-image.
                    const long long iy = static_cast<long long>(oy * g.stride_h + kh) -
                                         static_cast<long long>(g.pad_h);
                    if (iy < 0 || iy >= static_cast<long long>(g.in_h)) {
                        for (std::size_t ox = 0; ox < ow; ++ox) out_row[oy * ow + ox] = 0.0f;
                        continue;
                    }
                    const float* in_row = chan + static_cast<std::size_t>(iy) * g.in_w;
                    for (std::size_t ox = 0; ox < ow; ++ox) {
                        const long long ix = static_cast<long long>(ox * g.stride_w + kw) -
                                             static_cast<long long>(g.pad_w);
                        out_row[oy * ow + ox] =
                            (ix < 0 || ix >= static_cast<long long>(g.in_w))
                                ? 0.0f
                                : in_row[static_cast<std::size_t>(ix)];
                    }
                }
            }
        });
}

// Mirrors im2col's addressing exactly (the float loop stays separate so
// its parallel grain policy is untouched); padding taps take code 0. For
// unit column stride the inner loop degenerates to one contiguous row
// copy between two padding runs, so the common 3x3/s1 case moves whole
// rows with memcpy instead of per-tap bound checks.
void im2col_u8(const std::uint8_t* image, const ConvGeometry& g, std::uint8_t* columns) {
    const std::size_t oh = g.out_h();
    const std::size_t ow = g.out_w();
    const std::size_t out_spatial = oh * ow;
    const std::size_t patch_rows = g.in_channels * g.kernel_h * g.kernel_w;
    for (std::size_t row = 0; row < patch_rows; ++row) {
        const std::size_t kw = row % g.kernel_w;
        const std::size_t kh = (row / g.kernel_w) % g.kernel_h;
        const std::size_t c = row / (g.kernel_w * g.kernel_h);
        const std::uint8_t* chan = image + c * g.in_h * g.in_w;
        std::uint8_t* out_row = columns + row * out_spatial;
        // With stride_w == 1, ix = ox + (kw - pad_w): in-bounds for
        // ox in [lo, hi).
        const long long off = static_cast<long long>(kw) - static_cast<long long>(g.pad_w);
        const std::size_t lo =
            g.stride_w == 1 ? static_cast<std::size_t>(std::max(0LL, -off)) : 0;
        const std::size_t hi =
            g.stride_w == 1
                ? static_cast<std::size_t>(std::clamp(
                      static_cast<long long>(g.in_w) - off, 0LL, static_cast<long long>(ow)))
                : 0;
        for (std::size_t oy = 0; oy < oh; ++oy) {
            const long long iy = static_cast<long long>(oy * g.stride_h + kh) -
                                 static_cast<long long>(g.pad_h);
            std::uint8_t* dst = out_row + oy * ow;
            if (iy < 0 || iy >= static_cast<long long>(g.in_h)) {
                std::memset(dst, 0, ow);
                continue;
            }
            const std::uint8_t* in_row = chan + static_cast<std::size_t>(iy) * g.in_w;
            if (g.stride_w == 1) {
                if (lo > 0) std::memset(dst, 0, lo);
                if (hi > lo) {
                    const auto ix0 = static_cast<std::size_t>(off + static_cast<long long>(lo));
                    std::memcpy(dst + lo, in_row + ix0, hi - lo);
                }
                if (ow > hi) std::memset(dst + hi, 0, ow - hi);
                continue;
            }
            for (std::size_t ox = 0; ox < ow; ++ox) {
                const long long ix = static_cast<long long>(ox * g.stride_w + kw) -
                                     static_cast<long long>(g.pad_w);
                dst[ox] = (ix < 0 || ix >= static_cast<long long>(g.in_w))
                              ? std::uint8_t{0}
                              : in_row[static_cast<std::size_t>(ix)];
            }
        }
    }
}


void col2im(const float* columns, const ConvGeometry& g, float* image) {
    const std::size_t oh = g.out_h();
    const std::size_t ow = g.out_w();
    const std::size_t out_spatial = oh * ow;
    // Rows of one channel scatter-add into overlapping pixels, so the
    // parallel unit is the channel: images of different channels are
    // disjoint, and within a channel the (kh, kw, oy, ox) accumulation
    // order stays exactly the serial one.
    auto channels = [&](std::size_t c_begin, std::size_t c_end) {
        for (std::size_t c = c_begin; c < c_end; ++c) {
            std::size_t row = c * g.kernel_h * g.kernel_w;
            float* chan = image + c * g.in_h * g.in_w;
            for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
                for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
                    const float* in_row = columns + row * out_spatial;
                    for (std::size_t oy = 0; oy < oh; ++oy) {
                        const long long iy = static_cast<long long>(oy * g.stride_h + kh) -
                                             static_cast<long long>(g.pad_h);
                        if (iy < 0 || iy >= static_cast<long long>(g.in_h)) continue;
                        float* img_row = chan + static_cast<std::size_t>(iy) * g.in_w;
                        for (std::size_t ox = 0; ox < ow; ++ox) {
                            const long long ix = static_cast<long long>(ox * g.stride_w + kw) -
                                                 static_cast<long long>(g.pad_w);
                            if (ix < 0 || ix >= static_cast<long long>(g.in_w)) continue;
                            img_row[static_cast<std::size_t>(ix)] += in_row[oy * ow + ox];
                        }
                    }
                }
            }
        }
    };
    runtime::parallel_for(0, g.in_channels, runtime::suggest_grain(g.in_channels, 1),
                          channels);
}

void ConvLowering::lower_batch(const float* batch, std::size_t batch_size,
                               float* columns) const {
    const std::size_t per_image = columns_floats();
    runtime::parallel_for(0, batch_size, 1, [&](std::size_t b_begin, std::size_t b_end) {
        for (std::size_t b = b_begin; b < b_end; ++b) {
            lower_image(batch, b, columns + b * per_image);
        }
    });
}

}  // namespace ams

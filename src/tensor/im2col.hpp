// im2col / col2im lowering for convolution via GEMM.
#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/tensor.hpp"

namespace ams {

/// Geometry of a 2-D convolution over NCHW tensors.
struct ConvGeometry {
    std::size_t in_channels = 0;
    std::size_t in_h = 0;
    std::size_t in_w = 0;
    std::size_t kernel_h = 1;
    std::size_t kernel_w = 1;
    std::size_t stride_h = 1;
    std::size_t stride_w = 1;
    std::size_t pad_h = 0;
    std::size_t pad_w = 0;

    [[nodiscard]] std::size_t out_h() const {
        return (in_h + 2 * pad_h - kernel_h) / stride_h + 1;
    }
    [[nodiscard]] std::size_t out_w() const {
        return (in_w + 2 * pad_w - kernel_w) / stride_w + 1;
    }
    /// Rows of the lowered patch matrix: C_in * K_h * K_w.
    [[nodiscard]] std::size_t patch_size() const {
        return in_channels * kernel_h * kernel_w;
    }
    /// Throws std::invalid_argument if the geometry is degenerate
    /// (zero dims, kernel larger than padded input, zero stride).
    void validate() const;
};

/// Lowers one image (C,H,W, contiguous) into a (patch_size x out_h*out_w)
/// column matrix. Out-of-bounds (padding) taps are written as 0.
/// `columns` must hold geometry.patch_size() * out_h * out_w floats.
void im2col(const float* image, const ConvGeometry& g, float* columns);

/// Code-typed im2col for the integer GEMM path: identical addressing to
/// the float version, but over uint8 activation codes. Padding
/// taps are written as code 0, which is exact because every grid the
/// integer path accepts places the value 0.0 at code 0 (zero-point 0).
/// Serial by design — the integer conv driver already parallelizes over
/// the batch around these calls.
void im2col_u8(const std::uint8_t* image, const ConvGeometry& g, std::uint8_t* columns);

/// Adjoint of im2col: scatters a column matrix back into an image buffer,
/// accumulating where patches overlap. `image` must be pre-zeroed by the
/// caller if a pure adjoint is wanted.
void col2im(const float* columns, const ConvGeometry& g, float* image);

/// The one shared im2col lowering used by every convolution path
/// (nn::Conv2d forward and backward, vmac::VmacConv2d, and the quantized
/// conv wrapper, which drives Conv2d). Owns no memory: callers provide
/// the column buffers — arena scratch on the planned eval path, reusable
/// member buffers on the training path — so the three formerly duplicated
/// lowerings share one geometry/addressing implementation.
class ConvLowering {
public:
    ConvLowering() = default;
    /// Throws std::invalid_argument if the geometry is degenerate.
    explicit ConvLowering(const ConvGeometry& g) : g_(g), oh_(0), ow_(0) {
        g_.validate();
        oh_ = g_.out_h();
        ow_ = g_.out_w();
    }

    [[nodiscard]] const ConvGeometry& geometry() const { return g_; }
    [[nodiscard]] std::size_t out_h() const { return oh_; }
    [[nodiscard]] std::size_t out_w() const { return ow_; }
    [[nodiscard]] std::size_t out_spatial() const { return oh_ * ow_; }
    [[nodiscard]] std::size_t patch_size() const { return g_.patch_size(); }
    /// Floats of one input image (C * H * W).
    [[nodiscard]] std::size_t image_floats() const {
        return g_.in_channels * g_.in_h * g_.in_w;
    }
    /// Floats of one image's column matrix (patch_size * out_spatial).
    [[nodiscard]] std::size_t columns_floats() const {
        return patch_size() * out_spatial();
    }

    /// Lowers image `b` of a contiguous NCHW batch into `columns`
    /// (columns_floats() floats).
    void lower_image(const float* batch, std::size_t b, float* columns) const {
        im2col(batch + b * image_floats(), g_, columns);
    }

    /// Lowers images [0, batch_size) into `columns`
    /// (batch_size * columns_floats() floats, image-major). Images are
    /// write-disjoint, so the loop parallelizes over the batch.
    void lower_batch(const float* batch, std::size_t batch_size, float* columns) const;

    /// Scatter-adjoint for image `b`: accumulates `columns` back into the
    /// image slice (caller pre-zeroes for a pure adjoint).
    void scatter_image(const float* columns, std::size_t b, float* batch) const {
        col2im(columns, g_, batch + b * image_floats());
    }

private:
    ConvGeometry g_{};
    std::size_t oh_ = 0;
    std::size_t ow_ = 0;
};

}  // namespace ams

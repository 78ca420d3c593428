// Register-blocked GEMM microkernels behind the runtime SIMD dispatch.
//
// The public gemm/gemm_accumulate/gemm_at/gemm_bt entry points
// (tensor/gemm.hpp) select between the legacy scalar blocked kernel
// (bit-exact with the pre-SIMD library, always available, forced with
// AMSNET_SIMD=off) and the packed AVX2/FMA path declared here.
//
// Geometry of the vector path (see DESIGN.md §10):
//
//   * B is packed once per call into column panels of width kNR = 16,
//     zero-padded to a multiple of 16 — K*round_up(N,16) floats.
//   * A is packed per 6-row panel (kMR = 6) into a K*6 interleaved strip
//     by the thread that consumes it; 6x16 FMA microkernel, 12 YMM
//     accumulators, full-K sweep per tile.
//   * Column tails use masked stores, row tails narrower microkernels;
//     either way each C element accumulates its K products in index
//     order in a private register lane, so results are bit-identical for
//     any row partition — parallel row-slicing cannot perturb numerics.
//
// Pack-buffer ownership: callers on the planned inference path route the
// (large) B panel through EvalContext scratch via EvalContextPackBuffers
// so steady-state passes stay allocation-free; everyone else falls back
// to thread-local storage (tls_pack_buffers). The small per-panel A
// strip is always thread-local — it is written inside parallel workers,
// where a shared buffer would race.
#pragma once

#include <cstddef>

#include "runtime/eval_context.hpp"
#include "runtime/simd.hpp"

namespace ams {

/// Scratch provider for the packed GEMM path. `ensure` returns a buffer
/// of at least `floats` floats for the given slot, stable until the next
/// ensure() of the same slot with a larger size.
class GemmPackBuffers {
public:
    /// Slot ids passed to ensure().
    enum Slot : int {
        kPackA = 0,      ///< per-panel A strip (thread-local only; never shared)
        kPackB = 1,      ///< packed B panels, K * round_up(N, 16) floats
        kTranspose = 2,  ///< A^T scratch for the scalar gemm_at arm, M*K floats
    };

    virtual ~GemmPackBuffers() = default;
    [[nodiscard]] virtual float* ensure(int which, std::size_t floats) = 0;
};

/// The calling thread's growable fallback buffers (plain heap vectors;
/// they only allocate when they grow, so steady-state reuse is free).
[[nodiscard]] GemmPackBuffers& tls_pack_buffers();

/// Adapter that parks pack buffers in an EvalContext's scratch arena,
/// keyed (owner, slot_base + which). Reserve the same keys serially
/// before the region when the adapter will be used inside a parallel
/// region: ensure() must then be a pure registry lookup.
class EvalContextPackBuffers final : public GemmPackBuffers {
public:
    EvalContextPackBuffers(runtime::EvalContext& ctx, const void* owner, int slot_base)
        : ctx_(&ctx), owner_(owner), slot_base_(slot_base) {}

    [[nodiscard]] float* ensure(int which, std::size_t floats) override {
        return ctx_->reserve_scratch(owner_, slot_base_ + which, floats);
    }

private:
    runtime::EvalContext* ctx_;
    const void* owner_;
    int slot_base_;
};

/// Floats needed for the packed-B panel of a (K x N) right-hand side.
[[nodiscard]] constexpr std::size_t packed_b_floats(std::size_t k, std::size_t n) {
    return k * ((n + 15) / 16) * 16;
}

namespace kernels {

/// C (MxN) = [+=] A * B on the AVX2/FMA arm. `a_transposed` reads A as
/// stored KxM (the gemm_at layout) directly during packing — no
/// transpose scratch. `pack` supplies the B panel (nullptr: thread-local).
void gemm_avx2(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
               std::size_t n, bool accumulate, bool a_transposed, GemmPackBuffers* pack);

/// C (MxN) = A (MxK) * B^T (stored NxK) on the AVX2/FMA arm; packs the
/// B panel straight from the transposed layout.
void gemm_bt_avx2(const float* a, const float* bt, float* c, std::size_t m, std::size_t k,
                  std::size_t n, GemmPackBuffers* pack);

}  // namespace kernels

}  // namespace ams

// Shared configuration for the experiment benches.
//
// Every bench regenerates one table or figure of the paper and prints the
// paper's reference values alongside the values measured on this
// substrate (synthetic dataset + MiniResNet; see DESIGN.md). Absolute
// numbers differ from the paper by construction — the *shape* (ordering,
// crossovers, recovery factors) is what is being reproduced.
//
// The interesting ENOB range shifts with network scale: ResNet-50 layers
// have N_tot up to 4608 and ImageNet demands fine logits, putting the
// paper's accuracy cliff at ENOB 9-13; MiniResNet's N_tot tops out at 288
// on an easier task, putting ours at ENOB ~4.5-8. Equivalence: accuracy
// depends on sqrt(Ntot * Nmult) * 2^-ENOB (Eq. 2), so the sweep below is
// the same experiment at this substrate's operating point.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <span>
#include <vector>

#include "ams/adc_quantizer.hpp"
#include "core/experiment.hpp"
#include "tensor/rng.hpp"

namespace ams::bench {

/// True when AMSNET_BENCH_QUICK is set to anything but "" or "0": CI
/// smoke runs shrink repetition counts and campaign sizes.
inline bool quick() {
    const char* env = std::getenv("AMSNET_BENCH_QUICK");
    return env != nullptr && *env != '\0' && *env != '0';
}

/// Mean wall seconds of one `fn()` over `reps` timed calls, after one
/// untimed warm-up call (pages in buffers, grows pack and arena scratch).
template <typename Fn>
double seconds_of(Fn&& fn, int reps) {
    fn();
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count() / reps;
}

/// ENOB sweep for the Fig. 4 / Fig. 5 analogues (Nmult = 8 throughout,
/// matching the paper).
inline std::vector<double> enob_sweep() {
    if (core::env_flag("REPRO_FAST")) return {4.5, 5.5, 7.0};
    return {4.5, 5.0, 5.5, 6.0, 6.5, 7.0, 8.0, 9.0, 10.0};
}

/// ENOB used for the Table 2 freezing study: clearly inside the lossy
/// region (the paper uses ENOB 10 for the same reason at its scale).
inline double freezing_enob() {
    return 5.0;
}

/// AMS variants plotted in the Fig. 6 analogue (noise decreasing).
inline std::vector<double> fig6_enobs() {
    if (core::env_flag("REPRO_FAST")) return {4.5, 7.0};
    return {4.5, 5.5, 6.5, 8.0};
}

/// The paper sweeps Nmult over powers of two in Fig. 8.
inline std::vector<std::size_t> nmult_sweep() {
    return {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
}

inline vmac::VmacConfig vmac_at(double enob, std::size_t nmult = 8) {
    vmac::VmacConfig v;
    v.enob = enob;
    v.nmult = nmult;
    return v;
}

// ----- shared error-measurement helpers for the extension benches -----

/// Incremental RMS accumulator for injected-error samples.
class RmsAccumulator {
public:
    void add(double err) {
        sq_ += err * err;
        ++n_;
    }
    [[nodiscard]] double rms() const {
        return n_ == 0 ? 0.0 : std::sqrt(sq_ / static_cast<double>(n_));
    }
    /// Effective ENOB implied by the accumulated RMS at `full_scale`.
    [[nodiscard]] double effective_enob(double full_scale) const {
        return vmac::effective_enob_from_rms(rms(), full_scale);
    }
    [[nodiscard]] std::size_t count() const { return n_; }

private:
    double sq_ = 0.0;
    std::size_t n_ = 0;
};

/// Draws one random operand set in the DoReFa ranges every extension
/// bench uses: weights uniform in [-1, 1], activations uniform in [0, 1].
inline void random_operands(std::span<double> w, std::span<double> x, Rng& rng) {
    for (double& v : w) v = rng.uniform(-1.0, 1.0);
    for (double& v : x) v = rng.uniform(0.0, 1.0);
}

/// RMS error and effective ENOB of a dot-product datapath over random
/// operand draws.
struct ErrorStats {
    double rms_error = 0.0;
    double effective_enob = 0.0;
};

/// Runs `trials` random length-`len` dot products through `error_fn`
/// (called as error_fn(w, x), returning datapath - ideal for that draw)
/// and reports the RMS error plus the effective ENOB at `full_scale`.
template <typename ErrorFn>
ErrorStats measure_rms_error(std::size_t len, double full_scale, int trials, Rng& rng,
                             ErrorFn&& error_fn) {
    RmsAccumulator acc;
    for (int t = 0; t < trials; ++t) {
        std::vector<double> w(len), x(len);
        random_operands(w, x, rng);
        acc.add(error_fn(w, x));
    }
    return {acc.rms(), acc.effective_enob(full_scale)};
}

/// Mean and standard deviation of a sample set (population convention).
struct SampleStats {
    double mean = 0.0;
    double stddev = 0.0;
};

inline SampleStats sample_stats(std::span<const double> samples) {
    if (samples.empty()) return {};
    double mean = 0.0, sq = 0.0;
    for (double v : samples) {
        mean += v;
        sq += v * v;
    }
    mean /= static_cast<double>(samples.size());
    const double var = sq / static_cast<double>(samples.size()) - mean * mean;
    return {mean, std::sqrt(std::max(0.0, var))};
}

}  // namespace ams::bench

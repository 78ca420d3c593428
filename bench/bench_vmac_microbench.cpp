// VMAC model-validation microbench (paper Sec. 4, "improving our error
// models"): compares the lumped statistical injector against the
// bit-exact per-VMAC simulation — both in distribution (printed agreement
// check) and in throughput (std::chrono::steady_clock timers),
// quantifying the speed/fidelity tradeoff the paper describes.
// AMSNET_BENCH_QUICK=1 shrinks the timed repetition counts.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "ams/error_injector.hpp"
#include "ams/vmac_cell.hpp"
#include "bench_common.hpp"

namespace {

using namespace ams;

vmac::VmacConfig cfg(double enob = 8.0, std::size_t nmult = 8) {
    vmac::VmacConfig c;
    c.enob = enob;
    c.nmult = nmult;
    return c;
}

/// Keeps timed results observable so no call is optimized away.
volatile double g_sink = 0.0;

/// Prints one throughput row: ns per call and items (products or tensor
/// elements) per second.
void print_row(const std::string& name, double seconds, std::size_t items) {
    std::printf("%-32s %12.1f %14.2f\n", name.c_str(), seconds * 1e9,
                static_cast<double>(items) / seconds * 1e-6);
}

void time_bit_exact_vmac_dot(std::size_t nmult, int reps) {
    vmac::VmacCell cell(cfg(8.0, nmult));
    Rng rng(1);
    std::vector<double> w(nmult), x(nmult);
    for (double& v : w) v = rng.uniform(-1.0, 1.0);
    for (double& v : x) v = rng.uniform(0.0, 1.0);
    const double s = bench::seconds_of([&] { g_sink = g_sink + cell.dot(w, x, rng); }, reps);
    print_row("BM_BitExactVmacDot/" + std::to_string(nmult), s, nmult);
}

void time_injector(const std::string& name, vmac::ErrorInjector& inj, int reps) {
    Tensor t(Shape{4096});
    const double s = bench::seconds_of([&] { g_sink = g_sink + inj.forward(t).data()[0]; }, reps);
    print_row(name, s, t.size());
}

/// Printed (non-timed) agreement check between the statistical model and
/// the bit-exact cell: error variance ratio should be ~1.
void print_agreement() {
    std::printf("\n=== Lumped statistical model vs bit-exact VMAC agreement ===\n");
    std::printf("%-8s %-8s %-14s %-14s %-8s\n", "ENOB", "Nmult", "bit-exact var",
                "Eq.1 variance", "ratio");
    Rng rng(42);
    for (double enob : {6.0, 8.0, 10.0}) {
        for (std::size_t nmult : {std::size_t{8}, std::size_t{16}}) {
            vmac::VmacCell cell(cfg(enob, nmult));
            double sq = 0.0;
            const int trials = 20000;
            std::vector<double> w(nmult), x(nmult);
            for (int t = 0; t < trials; ++t) {
                for (double& v : w) v = rng.uniform(-1.0, 1.0);
                for (double& v : x) v = rng.uniform(0.0, 1.0);
                const double err = cell.dot(w, x, rng) - cell.dot_ideal(w, x);
                sq += err * err;
            }
            const double empirical = sq / trials;
            const double model = vmac::vmac_error_variance(cfg(enob, nmult));
            std::printf("%-8.1f %-8zu %-14.6g %-14.6g %-8.3f\n", enob, nmult, empirical,
                        model, empirical / model);
        }
    }
    std::printf("ratio ~ 1 validates lumping all VMAC error into Eq. 1/2 (paper Sec. 2).\n\n");
}

}  // namespace

int main() {
    print_agreement();

    const int reps = bench::quick() ? 200 : 20000;
    std::printf("%-32s %12s %14s\n", "row", "ns/iter", "M items/s");
    for (std::size_t nmult : {std::size_t{8}, std::size_t{64}, std::size_t{256}}) {
        time_bit_exact_vmac_dot(nmult, reps);
    }
    vmac::ErrorInjector lumped(cfg(), 72, Rng(2));
    time_injector("BM_LumpedInjectorPerElement", lumped, reps / 10);
    vmac::ErrorInjector per_vmac(cfg(), 72, Rng(3), vmac::InjectionMode::kPerVmacUniform);
    time_injector("BM_PerVmacInjectorPerElement", per_vmac, reps / 10);
    return 0;
}

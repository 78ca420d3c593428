#include "energy/energy_accuracy.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "energy/adc_energy.hpp"

namespace ams::energy {
namespace {

AccuracyCurve demo_curve() {
    // Loss shrinking with ENOB, measured at Nmult = 8.
    return AccuracyCurve({{5.0, 0.30}, {6.0, 0.10}, {7.0, 0.03}, {8.0, 0.01}, {10.0, 0.0}}, 8);
}

TEST(AccuracyCurveTest, InterpolatesLinearly) {
    const AccuracyCurve c = demo_curve();
    EXPECT_DOUBLE_EQ(c.loss_at(6.0, 8), 0.10);
    EXPECT_NEAR(c.loss_at(6.5, 8), 0.065, 1e-12);
    EXPECT_NEAR(c.loss_at(5.5, 8), 0.20, 1e-12);
}

TEST(AccuracyCurveTest, ClampsOutsideRange) {
    const AccuracyCurve c = demo_curve();
    EXPECT_DOUBLE_EQ(c.loss_at(2.0, 8), 0.30);
    EXPECT_DOUBLE_EQ(c.loss_at(15.0, 8), 0.0);
}

TEST(AccuracyCurveTest, NmultShiftUsesEquivalentEnob) {
    const AccuracyCurve c = demo_curve();
    // Nmult 32 at ENOB e behaves like Nmult 8 at ENOB e - 1.
    EXPECT_NEAR(c.loss_at(7.0, 32), c.loss_at(6.0, 8), 1e-12);
    EXPECT_NEAR(c.loss_at(7.0, 2), c.loss_at(8.0, 8), 1e-12);
}

TEST(AccuracyCurveTest, ValidatesConstruction) {
    EXPECT_THROW(AccuracyCurve({{5.0, 0.1}}, 8), std::invalid_argument);
    EXPECT_THROW(AccuracyCurve({{5.0, 0.1}, {5.0, 0.2}}, 8), std::invalid_argument);
    EXPECT_THROW(AccuracyCurve({{5.0, 0.1}, {6.0, 0.2}}, 0), std::invalid_argument);
}

TEST(EnergyAccuracyMapTest, GridDimensionsAndValues) {
    const AccuracyCurve c = demo_curve();
    EnergyAccuracyMap map(c, {6.0, 8.0, 12.0}, {1, 8, 64});
    EXPECT_EQ(map.grid().size(), 9u);
    const DesignPoint& p = map.at(1, 1);  // enob 8, nmult 8
    EXPECT_DOUBLE_EQ(p.accuracy_loss, 0.01);
    EXPECT_NEAR(p.emac_fj, emac_lower_bound_fj(8.0, 8), 1e-12);
    EXPECT_THROW((void)map.at(3, 0), std::out_of_range);
}

TEST(EnergyAccuracyMapTest, CheapestForLossFindsMinimalEnergy) {
    const AccuracyCurve c = demo_curve();
    std::vector<double> enobs;
    for (double e = 5.0; e <= 14.0; e += 0.5) enobs.push_back(e);
    EnergyAccuracyMap map(c, enobs, {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
    const DesignPoint* best = map.cheapest_for_loss(0.02);
    ASSERT_NE(best, nullptr);
    EXPECT_LT(best->accuracy_loss, 0.02);
    // Every other qualifying grid point costs at least as much.
    for (const DesignPoint& p : map.grid()) {
        if (p.accuracy_loss < 0.02) {
            EXPECT_GE(p.emac_fj, best->emac_fj - 1e-12);
        }
    }
}

TEST(EnergyAccuracyMapTest, ImpossibleLossReturnsNull) {
    const AccuracyCurve c = demo_curve();
    EnergyAccuracyMap map(c, {5.0}, {8});  // only a lossy config available
    EXPECT_EQ(map.cheapest_for_loss(0.001), nullptr);
}

TEST(EnergyAccuracyMapTest, BestAccuracyForEnergyBudget) {
    const AccuracyCurve c = demo_curve();
    EnergyAccuracyMap map(c, {5.0, 7.0, 9.0}, {8, 64});
    const DesignPoint* best = map.best_accuracy_for_energy(1e6);
    ASSERT_NE(best, nullptr);
    // With an unlimited budget the most accurate cell wins.
    double min_loss = 1.0;
    for (const DesignPoint& p : map.grid()) min_loss = std::min(min_loss, p.accuracy_loss);
    EXPECT_DOUBLE_EQ(best->accuracy_loss, min_loss);
    EXPECT_EQ(map.best_accuracy_for_energy(1e-9), nullptr);
}

TEST(EnergyAccuracyMapTest, ThermalRegimeEmacConstantAlongIsoAccuracyCurves) {
    // The paper's central claim (Sec. 4): in the thermal-noise-limited
    // regime, moving along an iso-accuracy curve (ENOB + 0.5 log2 ratio,
    // Nmult * ratio) leaves E_MAC unchanged, so accuracy loss and minimum
    // energy have a one-to-one relationship.
    const AccuracyCurve c = demo_curve();
    const double enob0 = 12.0;  // > 10.5: thermal regime
    const std::size_t nmult0 = 8;
    const double loss0 = c.loss_at(enob0, nmult0);
    const double emac0 = emac_lower_bound_fj(enob0, nmult0);
    for (double ratio : {4.0, 16.0, 64.0}) {
        const double enob = enob0 + 0.5 * std::log2(ratio);
        const auto nmult = static_cast<std::size_t>(nmult0 * ratio);
        EXPECT_NEAR(c.loss_at(enob, nmult), loss0, 1e-9);
        EXPECT_NEAR(emac_lower_bound_fj(enob, nmult) / emac0, 1.0, 2e-2);
    }
}

TEST(EnergyAccuracyMapTest, ValidatesGrid) {
    const AccuracyCurve c = demo_curve();
    EXPECT_THROW(EnergyAccuracyMap(c, {}, {8}), std::invalid_argument);
    EXPECT_THROW(EnergyAccuracyMap(c, {8.0}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace ams::energy

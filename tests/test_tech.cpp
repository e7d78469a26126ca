/**
 * @file
 * Unit tests for the technology models: process scaling, WSI
 * technologies, external I/O, cooling, link-latency constants.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>

#include "tech/cooling.hpp"
#include "tech/external_io.hpp"
#include "tech/link_latency.hpp"
#include "tech/process_scaling.hpp"
#include "tech/wsi.hpp"

namespace wss::tech {
namespace {

TEST(ProcessScaling, FactorsShrinkWithNode)
{
    const ProcessNode order[] = {
        ProcessNode::N180, ProcessNode::N130, ProcessNode::N90,
        ProcessNode::N65,  ProcessNode::N40,  ProcessNode::N28,
        ProcessNode::N16,  ProcessNode::N10,  ProcessNode::N7,
        ProcessNode::N5,
    };
    for (std::size_t i = 1; i < std::size(order); ++i) {
        EXPECT_GT(switchingEnergyFactor(order[i - 1]),
                  switchingEnergyFactor(order[i]))
            << toString(order[i - 1]) << " vs " << toString(order[i]);
    }
}

TEST(ProcessScaling, FiveNanometerIsUnity)
{
    EXPECT_DOUBLE_EQ(switchingEnergyFactor(ProcessNode::N5), 1.0);
}

TEST(ProcessScaling, ScalePowerRoundTrips)
{
    const Watts p = 240.0;
    const Watts there = scalePower(p, ProcessNode::N16, ProcessNode::N5);
    const Watts back = scalePower(there, ProcessNode::N5,
                                  ProcessNode::N16);
    EXPECT_NEAR(back, p, 1e-9);
    EXPECT_LT(there, p); // shrinking nodes cut power
}

TEST(ProcessScaling, NamesAreStable)
{
    EXPECT_EQ(toString(ProcessNode::N5), "5nm");
    EXPECT_EQ(toString(ProcessNode::N180), "180nm");
}

TEST(Wsi, SiIfBaselineMatchesPaper)
{
    const WsiTechnology t = siIf();
    EXPECT_DOUBLE_EQ(t.totalBandwidthDensity(), 3200.0);
    EXPECT_EQ(t.signal_layers, 4);
    EXPECT_DOUBLE_EQ(t.hop_latency_ns, 1.0);
    EXPECT_DOUBLE_EQ(t.max_substrate_side_mm, 300.0);
}

TEST(Wsi, SiIf2xDoublesDensityAtHigherEnergy)
{
    const WsiTechnology base = siIf();
    const WsiTechnology fast = siIf2x();
    EXPECT_DOUBLE_EQ(fast.totalBandwidthDensity(),
                     2.0 * base.totalBandwidthDensity());
    EXPECT_GT(fast.energy_per_bit, 1.5 * base.energy_per_bit);
}

TEST(Wsi, InfoSowMatchesPaper)
{
    const WsiTechnology t = infoSow();
    EXPECT_DOUBLE_EQ(t.totalBandwidthDensity(), 12800.0);
    EXPECT_DOUBLE_EQ(t.energy_per_bit, 1.5);
}

TEST(Wsi, InterposerIsSizeCapped)
{
    EXPECT_LT(siliconInterposer().max_substrate_side_mm, 100.0);
}

TEST(Wsi, LayerSweepScalesLinearly)
{
    for (int layers : {1, 2, 4, 8, 16}) {
        const WsiTechnology t = siIfWithLayers(layers);
        EXPECT_DOUBLE_EQ(t.totalBandwidthDensity(), layers * 800.0);
        EXPECT_DOUBLE_EQ(t.energy_per_bit, siIf().energy_per_bit);
    }
}

struct ExternalIoCase
{
    const char *name;
    double side;
    double expected_ports_200g;
};

// Print a case as its technology and side. Without this gtest prints
// the raw bytes of the struct, `name` pointer included, and that
// pointer moves with every build and every address-space layout; the
// printed value is also what names each case under ctest.
void PrintTo(const ExternalIoCase &c, std::ostream *os)
{
    *os << c.name << "_" << static_cast<int>(c.side) << "mm";
}

class ExternalIoCapacity
    : public ::testing::TestWithParam<ExternalIoCase>
{};

TEST_P(ExternalIoCapacity, MatchesHandComputedPortBound)
{
    const auto &param = GetParam();
    ExternalIoTech tech = std::string(param.name) == "SerDes"
                              ? serdes()
                          : std::string(param.name) == "Optical"
                              ? opticalIo()
                              : areaIo();
    const double ports =
        tech.capacityPerDirection(param.side) / 200.0;
    EXPECT_NEAR(ports, param.expected_ports_200g, 1.0)
        << param.name << " @ " << param.side << " mm";
}

INSTANTIATE_TEST_SUITE_P(
    PaperOperatingPoints, ExternalIoCapacity,
    ::testing::Values(
        // SerDes: 4*side*512/3/2 / 200 — 512 ports at 300 mm (Fig. 7).
        ExternalIoCase{"SerDes", 300.0, 512.0},
        ExternalIoCase{"SerDes", 200.0, 341.3},
        ExternalIoCase{"SerDes", 100.0, 170.7},
        // Optical: 4*side*3200/2 / 200.
        ExternalIoCase{"Optical", 300.0, 9600.0},
        ExternalIoCase{"Optical", 200.0, 6400.0},
        ExternalIoCase{"Optical", 100.0, 3200.0},
        // Area I/O: side^2*16/2 / 200.
        ExternalIoCase{"AreaIO", 300.0, 3600.0},
        ExternalIoCase{"AreaIO", 200.0, 1600.0},
        ExternalIoCase{"AreaIO", 100.0, 400.0}));

TEST(ExternalIo, PlacementFlags)
{
    EXPECT_TRUE(serdes().usesMeshForEscape());
    EXPECT_TRUE(opticalIo().usesMeshForEscape());
    EXPECT_FALSE(areaIo().usesMeshForEscape());
    EXPECT_EQ(areaIo().io_chiplet_area, 0.0);
}

TEST(ExternalIo, OpticalOutpacesSerdesByShieldingAndLayers)
{
    // 4 layers x no shielding derate vs 1 layer x 1/3: about 18.75x.
    const double ratio = opticalIo().capacityPerDirection(300.0) /
                         serdes().capacityPerDirection(300.0);
    EXPECT_NEAR(ratio, 18.75, 0.01);
}

TEST(Cooling, BudgetsScaleWithArea)
{
    const CoolingSolution water = waterCooling();
    EXPECT_DOUBLE_EQ(water.powerBudget(300.0), 0.5 * 300.0 * 300.0);
    EXPECT_DOUBLE_EQ(water.powerBudget(100.0), 0.5 * 100.0 * 100.0);
}

TEST(Cooling, SolutionsAreOrdered)
{
    EXPECT_LT(airCooling().max_power_density_w_mm2,
              waterCooling().max_power_density_w_mm2);
    EXPECT_LT(waterCooling().max_power_density_w_mm2,
              multiphaseCooling().max_power_density_w_mm2);
    EXPECT_TRUE(std::isinf(
        unlimitedCooling().max_power_density_w_mm2));
    EXPECT_EQ(allCoolingSolutions().size(), 3u);
}

TEST(Cooling, WaterSustainsPaperDensity)
{
    // The paper: water cooling sustains 0.5 W/mm^2, and the
    // heterogeneous 300 mm switch sits just below it.
    EXPECT_DOUBLE_EQ(waterCooling().max_power_density_w_mm2, 0.5);
}

TEST(LinkLatency, TableVOrdering)
{
    EXPECT_LT(link_latency::kOnWaferNs, link_latency::kInRackPcbNs);
    EXPECT_LT(link_latency::kInRackPcbNs, link_latency::kOptical100mNs);
    EXPECT_DOUBLE_EQ(link_latency::kMeshHopNs, 1.0);
}

} // namespace
} // namespace wss::tech

/**
 * @file
 * Fault-rate sweep tests (DESIGN.md §10.4): thread-count
 * reproducibility, degradation monotonicity at the endpoints, field
 * plumbing, and the JSON rendering.
 */

#include <gtest/gtest.h>

#include "sim/fault_sweep.hpp"

namespace phastlane::sim {
namespace {

FaultSweepConfig
smallSweep()
{
    FaultSweepConfig cfg;
    cfg.params.meshWidth = 4;
    cfg.params.meshHeight = 4;
    cfg.sweepField = "missedReceiveRate";
    cfg.rates = {0.0, 0.1, 0.3};
    cfg.injectionRate = 0.05;
    cfg.broadcastFraction = 0.2;
    cfg.measureCycles = 300;
    cfg.seed = 42;
    return cfg;
}

TEST(FaultSweep, BitIdenticalAcrossThreadCounts)
{
    FaultSweepConfig cfg = smallSweep();
    cfg.threads = 1;
    const auto serial = runFaultSweep(cfg);
    cfg.threads = 4;
    const auto parallel = runFaultSweep(cfg);
    ASSERT_EQ(serial.size(), parallel.size());
    EXPECT_EQ(faultSweepToJson(cfg, serial),
              faultSweepToJson(cfg, parallel));
}

TEST(FaultSweep, ZeroRatePointIsLossFreeAndFaultPointsDegrade)
{
    FaultSweepConfig cfg = smallSweep();
    cfg.threads = 1;
    const auto pts = runFaultSweep(cfg);
    ASSERT_EQ(pts.size(), 3u);

    EXPECT_TRUE(pts[0].drained);
    EXPECT_EQ(pts[0].faultRate, 0.0);
    EXPECT_EQ(pts[0].events.lostUnits, 0u);
    EXPECT_EQ(pts[0].unitsDelivered, pts[0].unitsExpected);
    EXPECT_EQ(pts[0].e2e.retransmits, 0u);

    // Faulty points lose units at the network level; the reliability
    // layer retransmits and recovers (delivered units reach the
    // expected count unless retries were exhausted, in which case the
    // shortfall is accounted in e2e.lostUnits).
    for (size_t i = 1; i < pts.size(); ++i) {
        EXPECT_GT(pts[i].events.lostUnits, 0u) << "point " << i;
        EXPECT_GT(pts[i].e2e.retransmits, 0u) << "point " << i;
        EXPECT_EQ(pts[i].unitsDelivered + pts[i].e2e.lostUnits,
                  pts[i].unitsExpected)
            << "point " << i;
    }
    // More faults, more network-level loss (coarse monotonicity at
    // the tested endpoints).
    EXPECT_GT(pts[2].events.lostUnits, pts[1].events.lostUnits);
}

TEST(FaultSweep, WithoutReliabilityLayerUnitsStayLost)
{
    FaultSweepConfig cfg = smallSweep();
    cfg.threads = 1;
    cfg.reliable = false;
    cfg.rates = {0.3};
    const auto pts = runFaultSweep(cfg);
    ASSERT_EQ(pts.size(), 1u);
    EXPECT_TRUE(pts[0].drained);
    EXPECT_GT(pts[0].events.lostUnits, 0u);
    EXPECT_EQ(pts[0].unitsDelivered + pts[0].events.lostUnits,
              pts[0].unitsExpected);
    EXPECT_EQ(pts[0].e2e.sends, 0u);
}

TEST(FaultSweep, FieldPlumbing)
{
    const auto fields = faultRateFields();
    EXPECT_EQ(fields.size(), 5u);
    core::PhastlaneParams::FaultInjection fi;
    for (const auto &f : fields)
        EXPECT_TRUE(setFaultRate(fi, f, 0.5)) << f;
    EXPECT_DOUBLE_EQ(fi.misTurnRate, 0.5);
    EXPECT_DOUBLE_EQ(fi.missedReceiveRate, 0.5);
    EXPECT_DOUBLE_EQ(fi.dropSignalLossRate, 0.5);
    EXPECT_DOUBLE_EQ(fi.dropperIdCorruptRate, 0.5);
    EXPECT_DOUBLE_EQ(fi.routerFailRate, 0.5);
    EXPECT_FALSE(setFaultRate(fi, "noSuchField", 0.1));
}

TEST(FaultSweep, ApplyFaultFlags)
{
    Config args;
    core::PhastlaneParams::FaultInjection fi;
    EXPECT_FALSE(applyFaultFlags(args, fi));
    args.set("fault-signal-loss", "0.25");
    args.set("fault-seed", "17");
    EXPECT_TRUE(applyFaultFlags(args, fi));
    EXPECT_DOUBLE_EQ(fi.dropSignalLossRate, 0.25);
    EXPECT_EQ(fi.faultSeed, 17u);
    EXPECT_DOUBLE_EQ(fi.misTurnRate, 0.0);
}

TEST(FaultSweep, JsonContainsEveryPoint)
{
    FaultSweepConfig cfg = smallSweep();
    cfg.threads = 1;
    cfg.rates = {0.0, 0.2};
    cfg.measureCycles = 100;
    const auto pts = runFaultSweep(cfg);
    const std::string json = faultSweepToJson(cfg, pts);
    EXPECT_NE(json.find("\"sweep_field\": \"missedReceiveRate\""),
              std::string::npos);
    EXPECT_NE(json.find("\"fault_rate\": 0.000000"),
              std::string::npos);
    EXPECT_NE(json.find("\"fault_rate\": 0.200000"),
              std::string::npos);
    EXPECT_NE(json.find("\"e2e\""), std::string::npos);
    EXPECT_NE(json.find("\"duplicates_suppressed\""),
              std::string::npos);
}

TEST(FaultSweep, JsonHeaderNamesTheNetwork)
{
    FaultSweepConfig cfg = smallSweep();
    const std::string small = faultSweepToJson(cfg, {});
    EXPECT_NE(small.find("\"mesh\": \"4x4\""), std::string::npos);
    EXPECT_NE(small.find("\"wavefront\": \"bitplane\""),
              std::string::npos);
    EXPECT_NE(small.find("\"buffer_entries\": 10"), std::string::npos);
    EXPECT_NE(small.find("\"admission\": {\"policy\": \"none\""),
              std::string::npos);
    cfg.params.meshWidth = 8;
    cfg.params.meshHeight = 8;
    const std::string big = faultSweepToJson(cfg, {});
    EXPECT_NE(small, big);
    EXPECT_NE(big.find("\"mesh\": \"8x8\""), std::string::npos);
}

TEST(FaultSweepDeathTest, WriteSurfacesFullDisk)
{
    // /dev/full accepts the open but fails the flush: an unchecked
    // fwrite/fclose would leave a silently truncated file.
    const FaultSweepConfig cfg = smallSweep();
    EXPECT_DEATH(writeFaultSweepJson(cfg, {}, "/dev/full"), "");
}

} // namespace
} // namespace phastlane::sim

/**
 * @file
 * Trace file round-trip and replay tests (the paper drives both
 * simulators from the same trace files).
 */

#include <cstdio>
#include <gtest/gtest.h>

#include "core/network.hpp"
#include "electrical/network.hpp"
#include "traffic/coherence.hpp"
#include "traffic/splash.hpp"
#include "traffic/trace.hpp"
#include "temp_path.hpp"

namespace phastlane::traffic {
namespace {

std::vector<TraceRecord>
sampleTrace()
{
    std::vector<TraceRecord> t;
    t.push_back({0, 0, 63, MessageKind::Request, 1});
    t.push_back({0, 5, kInvalidNode, MessageKind::Invalidate, 2});
    t.push_back({3, 10, 20, MessageKind::Response, 3});
    t.push_back({7, 63, 0, MessageKind::Writeback, 4});
    t.push_back({7, 1, 2, MessageKind::Synthetic, 5});
    return t;
}

TEST(Trace, WriteReadRoundTrip)
{
    const std::string path = test::tempPath("trace_test.txt");
    const auto original = sampleTrace();
    writeTrace(path, original);
    const auto loaded = readTrace(path);
    EXPECT_EQ(loaded, original);
    std::remove(path.c_str());
}

TEST(Trace, BroadcastEncoding)
{
    TraceRecord r;
    r.dst = kInvalidNode;
    EXPECT_TRUE(r.broadcast());
    r.dst = 5;
    EXPECT_FALSE(r.broadcast());
}

TEST(Trace, CommentsAndBlankLinesIgnored)
{
    const std::string path = test::tempPath("trace_comment.txt");
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr) << path;
    std::fprintf(f, "# a comment\n\n1 2 3 0 9\n");
    std::fclose(f);
    const auto loaded = readTrace(path);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded[0].cycle, 1u);
    EXPECT_EQ(loaded[0].src, 2);
    EXPECT_EQ(loaded[0].dst, 3);
    EXPECT_EQ(loaded[0].tag, 9u);
    std::remove(path.c_str());
}

TEST(Trace, ReplayDeliversEverything)
{
    const auto trace = sampleTrace();
    core::PhastlaneNetwork net(core::PhastlaneParams{});
    const TraceReplayResult r = replayTrace(net, trace);
    EXPECT_EQ(r.messages, trace.size());
    // One broadcast (63 deliveries) + four unicasts.
    EXPECT_EQ(r.deliveries, 63u + 4u);
    EXPECT_GT(r.avgLatency, 0.0);
}

TEST(Trace, SameTraceRunsOnBothNetworks)
{
    // The defining property of the methodology: identical input to
    // both simulators.
    const auto trace = sampleTrace();
    core::PhastlaneNetwork opt(core::PhastlaneParams{});
    electrical::ElectricalNetwork elec(
        electrical::ElectricalParams{});
    const TraceReplayResult ro = replayTrace(opt, trace);
    const TraceReplayResult re = replayTrace(elec, trace);
    EXPECT_EQ(ro.deliveries, re.deliveries);
    EXPECT_LT(ro.avgLatency, re.avgLatency);
}

TEST(Trace, RespectsInjectionTimestamps)
{
    std::vector<TraceRecord> trace;
    trace.push_back({100, 0, 1, MessageKind::Synthetic, 1});
    core::PhastlaneNetwork net(core::PhastlaneParams{});
    const TraceReplayResult r = replayTrace(net, trace);
    EXPECT_GE(r.completionCycle, 100u);
    EXPECT_EQ(r.deliveries, 1u);
}

TEST(Trace, RecorderCapturesInjections)
{
    core::PhastlaneNetwork inner(core::PhastlaneParams{});
    RecordingNetwork rec(inner);
    Packet a;
    a.id = 1;
    a.src = 0;
    a.dst = 5;
    a.kind = MessageKind::Writeback;
    a.tag = 77;
    ASSERT_TRUE(rec.inject(a));
    rec.step();
    Packet b;
    b.id = 2;
    b.src = 3;
    b.broadcast = true;
    b.kind = MessageKind::Request;
    ASSERT_TRUE(rec.inject(b));
    while (rec.inFlight() > 0)
        rec.step();

    const auto &records = rec.recorded();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].cycle, 0u);
    EXPECT_EQ(records[0].src, 0);
    EXPECT_EQ(records[0].dst, 5);
    EXPECT_EQ(records[0].kind, MessageKind::Writeback);
    EXPECT_EQ(records[0].tag, 77u);
    EXPECT_EQ(records[1].cycle, 1u);
    EXPECT_TRUE(records[1].broadcast());
}

TEST(Trace, RecorderRejectionsAreNotRecorded)
{
    core::PhastlaneParams p;
    p.nicQueueEntries = 1;
    core::PhastlaneNetwork inner(p);
    RecordingNetwork rec(inner);
    Packet a;
    a.id = 1;
    a.src = 0;
    a.dst = 5;
    ASSERT_TRUE(rec.inject(a));
    Packet b = a;
    b.id = 2;
    EXPECT_FALSE(rec.inject(b)); // NIC full
    EXPECT_EQ(rec.recorded().size(), 1u);
}

TEST(Trace, RecordedWorkloadReplaysOnTheOtherNetwork)
{
    // The full methodology round trip: record a closed-loop workload
    // on the optical network, write it out, read it back, and replay
    // it on the electrical baseline.
    SplashProfile prof;
    prof.name = "mini";
    prof.txnsPerNode = 5;
    prof.mshrLimit = 2;
    prof.interBurstGapMean = 30.0;
    const auto streams = generateStreams(prof, 64, 21);

    core::PhastlaneNetwork opt(core::PhastlaneParams{});
    RecordingNetwork rec(opt);
    CoherenceDriver driver(rec, streams, prof.mshrLimit);
    const CoherenceResult r = driver.run();
    ASSERT_FALSE(r.timedOut);
    ASSERT_GT(rec.recorded().size(), 0u);

    const std::string path = test::tempPath("recorded_trace.txt");
    writeTrace(path, rec.recorded());
    const auto loaded = readTrace(path);
    EXPECT_EQ(loaded.size(), rec.recorded().size());

    electrical::ElectricalNetwork elec(
        electrical::ElectricalParams{});
    const TraceReplayResult replay = replayTrace(elec, loaded);
    // Every recorded message is delivered on the other network.
    uint64_t expected = 0;
    for (const auto &rcd : loaded)
        expected += rcd.broadcast() ? 63 : 1;
    EXPECT_EQ(replay.deliveries, expected);
    std::remove(path.c_str());
}

TEST(Trace, LongLinesParseAsOneRecord)
{
    // A fixed 256-byte fgets buffer used to split over-long lines,
    // letting the tail fragment parse as a bogus extra record (or
    // fail). Pad a valid record far past the old buffer size.
    const std::string path = test::tempPath("trace_longline.txt");
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr) << path;
    std::fprintf(f, "1 2 3 0 9%s\n", std::string(600, ' ').c_str());
    std::fprintf(f, "#%s\n", std::string(1000, 'x').c_str());
    std::fprintf(f, "2%s4 5 0 10\n", std::string(400, ' ').c_str());
    std::fclose(f);
    const auto loaded = readTrace(path);
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded[0].tag, 9u);
    EXPECT_EQ(loaded[1].cycle, 2u);
    EXPECT_EQ(loaded[1].src, 4);
    std::remove(path.c_str());
}

TEST(Trace, ValidateTraceRecordFindsBadNodes)
{
    TraceRecord r{0, 0, 5, MessageKind::Request, 1};
    EXPECT_EQ(validateTraceRecord(r, 64), "");
    r.dst = -5; // below even the broadcast sentinel
    EXPECT_NE(validateTraceRecord(r, 64), "");
    r.dst = kInvalidNode; // broadcast is fine
    EXPECT_EQ(validateTraceRecord(r, 64), "");
    r.dst = 64; // one past the last node
    EXPECT_NE(validateTraceRecord(r, 64), "");
    r.dst = 5;
    r.src = -1;
    EXPECT_NE(validateTraceRecord(r, 64), "");
    r.src = 64;
    EXPECT_NE(validateTraceRecord(r, 64), "");
    r.src = 5; // unicast to self
    EXPECT_NE(validateTraceRecord(r, 64), "");
    r.src = 0;
    r.kind = static_cast<MessageKind>(99);
    EXPECT_NE(validateTraceRecord(r, 64), "");
}

using TraceDeathTest = ::testing::Test;

TEST(TraceDeathTest, ReadRejectsOutOfRangeDst)
{
    // dst -5 used to replay as a negative unicast and index node
    // arrays out of bounds.
    const std::string path = test::tempPath("trace_bad_dst.txt");
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr) << path;
    std::fprintf(f, "0 1 -5 0 1\n");
    std::fclose(f);
    EXPECT_DEATH(readTrace(path), "");
    std::remove(path.c_str());
}

TEST(TraceDeathTest, ReadRejectsNodesOutsideTheNetwork)
{
    const std::string path = test::tempPath("trace_big_dst.txt");
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr) << path;
    std::fprintf(f, "0 1 70 0 1\n");
    std::fclose(f);
    EXPECT_DEATH(readTrace(path, 64), "");
    std::remove(path.c_str());
}

TEST(TraceDeathTest, ReadRejectsTrailingGarbage)
{
    const std::string path = test::tempPath("trace_garbage.txt");
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr) << path;
    std::fprintf(f, "0 1 2 0 1 oops\n");
    std::fclose(f);
    EXPECT_DEATH(readTrace(path), "");
    std::remove(path.c_str());
}

TEST(TraceDeathTest, ReadRejectsOutOfOrderCycles)
{
    const std::string path = test::tempPath("trace_order.txt");
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr) << path;
    std::fprintf(f, "5 1 2 0 1\n3 2 3 0 2\n");
    std::fclose(f);
    EXPECT_DEATH(readTrace(path), "");
    std::remove(path.c_str());
}

TEST(TraceDeathTest, WriteSurfacesFullDisk)
{
    // /dev/full accepts the open but fails every flush: the old
    // unchecked fprintf/fclose path produced a silently truncated
    // trace here.
    std::vector<TraceRecord> t;
    t.push_back({0, 0, 1, MessageKind::Request, 1});
    EXPECT_DEATH(writeTrace("/dev/full", t), "");
}

TEST(TraceDeathTest, ReplayRejectsRecordsOutsideTheNetwork)
{
    std::vector<TraceRecord> t;
    t.push_back({0, 0, 500, MessageKind::Request, 1});
    core::PhastlaneNetwork net(core::PhastlaneParams{});
    EXPECT_DEATH(replayTrace(net, t), "");
}

TEST(Trace, ReplaySurfacesCycleLimitExhaustion)
{
    // A record scheduled after the budget: the old code returned a
    // normal-looking result with no indication the replay was cut
    // short.
    std::vector<TraceRecord> t;
    t.push_back({0, 0, 1, MessageKind::Synthetic, 1});
    t.push_back({5000, 2, 3, MessageKind::Synthetic, 2});
    core::PhastlaneNetwork net(core::PhastlaneParams{});
    const TraceReplayResult r = replayTrace(net, t, 100);
    EXPECT_TRUE(r.hitCycleLimit);
    EXPECT_EQ(r.outstanding, 1u); // the cycle-5000 record never ran
    EXPECT_EQ(r.deliveries, 1u);

    core::PhastlaneNetwork net2(core::PhastlaneParams{});
    const TraceReplayResult ok = replayTrace(net2, t);
    EXPECT_FALSE(ok.hitCycleLimit);
    EXPECT_EQ(ok.outstanding, 0u);
    EXPECT_EQ(ok.deliveries, 2u);
}

TEST(Trace, LargeGeneratedTraceReplays)
{
    std::vector<TraceRecord> trace;
    uint64_t tag = 1;
    for (Cycle c = 0; c < 200; c += 2) {
        trace.push_back({c, static_cast<NodeId>(c % 64),
                         static_cast<NodeId>((c + 13) % 64),
                         MessageKind::Synthetic, tag++});
    }
    electrical::ElectricalNetwork net(
        electrical::ElectricalParams{});
    const TraceReplayResult r = replayTrace(net, trace);
    EXPECT_EQ(r.deliveries, trace.size());
}

} // namespace
} // namespace phastlane::traffic

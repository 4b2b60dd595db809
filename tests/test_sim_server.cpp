/**
 * @file
 * SimServer and streaming-replay tests (DESIGN.md §15): the served
 * run must be byte-identical to an offline replay of the canonically
 * merged traces no matter how client submissions interleave, chunk,
 * or retransmit; acknowledgements implement at-most-once injection
 * and inbox backpressure.
 */

#include <algorithm>
#include <gtest/gtest.h>

#include "core/network.hpp"
#include "sim/replay.hpp"
#include "sim/server.hpp"
#include "traffic/trace.hpp"

namespace phastlane::sim {
namespace {

using traffic::TraceRecord;

core::PhastlaneNetwork
makeNet()
{
    return core::PhastlaneNetwork(core::PhastlaneParams{});
}

/** Deterministic per-client trace: client c sends from nodes
 *  {c, c+8, ...} every few cycles. */
std::vector<TraceRecord>
clientTrace(int client, size_t n)
{
    std::vector<TraceRecord> t;
    uint64_t tag = static_cast<uint64_t>(client) * 100000 + 1;
    Cycle cycle = 0;
    for (size_t i = 0; i < n; ++i) {
        TraceRecord r;
        r.cycle = cycle;
        r.src = static_cast<NodeId>((client + 8 * i) % 64);
        r.dst = static_cast<NodeId>((r.src + 7 + client) % 64);
        if (r.dst == r.src)
            r.dst = (r.dst + 1) % 64;
        r.kind = MessageKind::Synthetic;
        r.tag = tag++;
        t.push_back(r);
        if (i % 3 == 2)
            cycle += 2;
    }
    return t;
}

/** The canonical (cycle, client id) merge the server must emulate. */
std::vector<TraceRecord>
canonicalMerge(const std::vector<std::vector<TraceRecord>> &traces)
{
    std::vector<TraceRecord> merged;
    std::vector<size_t> next(traces.size(), 0);
    for (;;) {
        size_t best = traces.size();
        for (size_t c = 0; c < traces.size(); ++c) {
            if (next[c] >= traces[c].size())
                continue;
            if (best == traces.size() ||
                traces[c][next[c]].cycle <
                    traces[best][next[best]].cycle)
                best = c;
        }
        if (best == traces.size())
            break;
        merged.push_back(traces[best][next[best]++]);
    }
    return merged;
}

std::string
offlineReport(const std::vector<TraceRecord> &records)
{
    auto net = makeNet();
    traffic::VectorTraceSource src(records);
    const ReplayStats stats = replayTraceStream(net, src);
    return formatReplayReport(stats, net);
}

/** Feed traces to a SimServer in @p chunk-record chunks, submitting
 *  clients round-robin with @p skew extra chunks for client 0 first,
 *  pumping between submissions. Returns the final report. */
std::string
servedReport(const std::vector<std::vector<TraceRecord>> &traces,
             size_t chunk, size_t skew,
             const ServerOptions &base = {})
{
    auto net = makeNet();
    ServerOptions opts = base;
    opts.expectedSessions = traces.size();
    SimServer server(net, opts);
    std::vector<size_t> next(traces.size(), 0);
    std::vector<uint64_t> seq(traces.size(), 0);
    std::vector<bool> finished(traces.size(), false);
    for (size_t c = 0; c < traces.size(); ++c)
        EXPECT_EQ(server.openSession(c), "");

    auto submitOne = [&](size_t c) {
        if (finished[c])
            return;
        if (next[c] >= traces[c].size()) {
            EXPECT_EQ(server.finish(c, ++seq[c]), "");
            finished[c] = true;
            return;
        }
        const size_t n =
            std::min(chunk, traces[c].size() - next[c]);
        const std::vector<TraceRecord> recs(
            traces[c].begin() + next[c],
            traces[c].begin() + next[c] + n);
        EXPECT_EQ(server.submit(c, ++seq[c], recs), "");
        next[c] += n;
    };

    for (size_t i = 0; i < skew; ++i)
        submitOne(0);
    while (!server.done()) {
        bool all = true;
        for (size_t c = 0; c < traces.size(); ++c) {
            submitOne(c);
            all = all && finished[c];
        }
        server.pump();
        server.takeReadyAcks();
        if (all && !server.done()) {
            // Everything submitted: pump() must finish the round.
            server.pump();
            EXPECT_TRUE(server.done());
            if (!server.done())
                return "stuck";
        }
    }
    return formatReplayReport(server.stats(), server.net());
}

TEST(SimServer, SingleClientMatchesOfflineReplay)
{
    const auto trace = clientTrace(0, 500);
    EXPECT_EQ(servedReport({trace}, 64, 0), offlineReport(trace));
}

TEST(SimServer, TwoClientsMatchOfflineMergeRegardlessOfChunking)
{
    const std::vector<std::vector<TraceRecord>> traces = {
        clientTrace(0, 400), clientTrace(1, 300)};
    const std::string expected =
        offlineReport(canonicalMerge(traces));
    // Different chunk sizes and submission skews interleave the
    // arrivals differently; the result must not change.
    EXPECT_EQ(servedReport(traces, 32, 0), expected);
    EXPECT_EQ(servedReport(traces, 7, 0), expected);
    EXPECT_EQ(servedReport(traces, 64, 3), expected);
    EXPECT_EQ(servedReport(traces, 1, 5), expected);
}

TEST(SimServer, ThreeClientsMatchOfflineMerge)
{
    const std::vector<std::vector<TraceRecord>> traces = {
        clientTrace(0, 200), clientTrace(1, 150),
        clientTrace(2, 250)};
    const std::string expected =
        offlineReport(canonicalMerge(traces));
    EXPECT_EQ(servedReport(traces, 16, 0), expected);
    EXPECT_EQ(servedReport(traces, 5, 4), expected);
}

TEST(SimServer, DuplicateSubmitIsReackedNotReinjected)
{
    auto net = makeNet();
    ServerOptions opts;
    opts.expectedSessions = 1;
    SimServer server(net, opts);
    EXPECT_EQ(server.openSession(9), "");
    const auto trace = clientTrace(0, 10);
    EXPECT_EQ(server.submit(9, 1, trace), "");
    EXPECT_EQ(server.acceptedRecords(9), 10u);
    // A retransmit (the ack was lost) must be re-acked, flagged as a
    // duplicate, and not double-inject.
    EXPECT_EQ(server.submit(9, 1, trace), "");
    EXPECT_EQ(server.acceptedRecords(9), 10u);
    const auto acks = server.takeReadyAcks();
    ASSERT_EQ(acks.size(), 2u);
    EXPECT_FALSE(acks[0].duplicate);
    EXPECT_TRUE(acks[1].duplicate);
    EXPECT_EQ(acks[1].seq, 1u);

    EXPECT_EQ(server.finish(9, 2), "");
    while (!server.done())
        server.pump();
    EXPECT_EQ(server.stats().messages, 10u);
}

TEST(SimServer, SequenceGapAndRegressionAreErrors)
{
    auto net = makeNet();
    SimServer server(net);
    EXPECT_EQ(server.openSession(1), "");
    const auto trace = clientTrace(0, 4);
    EXPECT_NE(server.submit(1, 2, trace), ""); // gap: expected 1
    EXPECT_EQ(server.submit(1, 1, trace), "");
    // Cycle regression across chunks violates the watermark promise;
    // a cycle-0 record regresses only if the trace ended later.
    ASSERT_GT(trace.back().cycle, 0u);
    std::vector<TraceRecord> early;
    early.push_back({0, 0, 1, MessageKind::Synthetic, 99});
    EXPECT_NE(server.submit(1, 2, early), "");
    // Unknown client and double-open are rejected too.
    EXPECT_NE(server.submit(7, 1, trace), "");
    EXPECT_NE(server.openSession(1), "");
}

TEST(SimServer, InvalidRecordsAreRejected)
{
    auto net = makeNet();
    SimServer server(net);
    EXPECT_EQ(server.openSession(0), "");
    std::vector<TraceRecord> bad;
    bad.push_back({0, 1, 500, MessageKind::Synthetic, 1});
    EXPECT_NE(server.submit(0, 1, bad), "");
    bad[0] = {0, 1, -5, MessageKind::Synthetic, 1};
    EXPECT_NE(server.submit(0, 1, bad), "");
    std::vector<TraceRecord> unsorted;
    unsorted.push_back({5, 0, 1, MessageKind::Synthetic, 1});
    unsorted.push_back({2, 1, 2, MessageKind::Synthetic, 2});
    EXPECT_NE(server.submit(0, 1, unsorted), "");
}

TEST(SimServer, WatermarkGatesTheSimulation)
{
    auto net = makeNet();
    ServerOptions opts;
    opts.expectedSessions = 2;
    SimServer server(net, opts);
    EXPECT_EQ(server.openSession(0), "");
    EXPECT_EQ(server.openSession(1), "");
    std::vector<TraceRecord> far;
    far.push_back({100, 0, 1, MessageKind::Synthetic, 1});
    EXPECT_EQ(server.submit(0, 1, far), "");
    // Client 1's watermark is still 0: the simulation must not
    // advance past cycle 0 (a cycle-0 record may still arrive).
    server.pump();
    EXPECT_EQ(net.now(), 0u);
    // Client 1 catches up to cycle 50: progress to there, no
    // further.
    std::vector<TraceRecord> mid;
    mid.push_back({50, 2, 3, MessageKind::Synthetic, 2});
    EXPECT_EQ(server.submit(1, 1, mid), "");
    server.pump();
    EXPECT_EQ(net.now(), 50u);
    // Both finish: the round drains.
    EXPECT_EQ(server.finish(0, 2), "");
    EXPECT_EQ(server.finish(1, 2), "");
    server.pump();
    EXPECT_TRUE(server.done());
    EXPECT_FALSE(server.hitCycleLimit());
    EXPECT_EQ(server.stats().deliveries, 2u);
    EXPECT_EQ(server.stats().outstanding, 0u);
}

TEST(SimServer, NothingAdvancesBeforeAllSessionsOpen)
{
    auto net = makeNet();
    ServerOptions opts;
    opts.expectedSessions = 2;
    SimServer server(net, opts);
    EXPECT_EQ(server.openSession(0), "");
    std::vector<TraceRecord> recs;
    recs.push_back({0, 0, 1, MessageKind::Synthetic, 1});
    EXPECT_EQ(server.submit(0, 1, recs), "");
    EXPECT_EQ(server.finish(0, 2), "");
    server.pump();
    EXPECT_EQ(net.now(), 0u);
    EXPECT_FALSE(server.done());
}

TEST(SimServer, BackpressureDefersAcksUntilTheInboxDrains)
{
    auto net = makeNet();
    ServerOptions opts;
    opts.expectedSessions = 2;
    opts.inboxSoftCap = 4;
    SimServer server(net, opts);
    EXPECT_EQ(server.openSession(0), "");
    EXPECT_EQ(server.openSession(1), "");
    // Client 0 floods records at future cycles; client 1 stays at
    // watermark 0, so nothing can release and the inbox grows.
    std::vector<TraceRecord> flood;
    for (int i = 0; i < 8; ++i)
        flood.push_back({static_cast<Cycle>(10 + i), 0,
                         static_cast<NodeId>(i + 1),
                         MessageKind::Synthetic,
                         static_cast<uint64_t>(i + 1)});
    EXPECT_EQ(server.submit(0, 1, flood), "");
    server.pump();
    auto acks = server.takeReadyAcks();
    EXPECT_TRUE(acks.empty()); // withheld: inbox over the soft cap
    // The withheld ack is visible to the transport so it can tell
    // the client "deferred, not lost" (the daemon's BUSY keepalive).
    EXPECT_EQ(server.deferredAckCount(0), 1u);
    EXPECT_EQ(server.deferredAckCount(99), 0u); // unknown client
    // A retransmit of the unacked chunk must stay silent (re-acking
    // would defeat the backpressure).
    EXPECT_EQ(server.submit(0, 1, flood), "");
    EXPECT_EQ(server.acceptedRecords(0), 8u);
    EXPECT_TRUE(server.takeReadyAcks().empty());
    // Client 1 advances past the flood; the inbox drains and the
    // deferred ack finally goes out.
    std::vector<TraceRecord> adv;
    adv.push_back({40, 2, 3, MessageKind::Synthetic, 100});
    EXPECT_EQ(server.submit(1, 1, adv), "");
    server.pump();
    acks = server.takeReadyAcks();
    bool acked0 = false;
    for (const auto &a : acks)
        acked0 |= a.clientId == 0 && a.seq == 1;
    EXPECT_TRUE(acked0);
    EXPECT_EQ(server.deferredAckCount(0), 0u);
}

TEST(SimServer, LaggardClientIsNeverDeadlockedByBackpressure)
{
    // A sole client whose inbox exceeds the cap is exactly the client
    // the simulation is waiting on: its ack must be promoted, not
    // withheld forever.
    auto net = makeNet();
    ServerOptions opts;
    opts.expectedSessions = 1;
    opts.inboxSoftCap = 2;
    SimServer server(net, opts);
    EXPECT_EQ(server.openSession(0), "");
    std::vector<TraceRecord> flood;
    for (int i = 0; i < 6; ++i)
        flood.push_back({static_cast<Cycle>(100 + i), 0,
                         static_cast<NodeId>(i + 1),
                         MessageKind::Synthetic,
                         static_cast<uint64_t>(i + 1)});
    EXPECT_EQ(server.submit(0, 1, flood), "");
    server.pump();
    const auto acks = server.takeReadyAcks();
    ASSERT_EQ(acks.size(), 1u);
    EXPECT_EQ(acks[0].seq, 1u);
}

TEST(SimServer, CycleLimitSurfacesOutstandingWork)
{
    auto net = makeNet();
    ServerOptions opts;
    opts.expectedSessions = 1;
    opts.maxCycles = 50;
    SimServer server(net, opts);
    EXPECT_EQ(server.openSession(0), "");
    std::vector<TraceRecord> recs;
    recs.push_back({0, 0, 1, MessageKind::Synthetic, 1});
    recs.push_back({500, 2, 3, MessageKind::Synthetic, 2});
    EXPECT_EQ(server.submit(0, 1, recs), "");
    EXPECT_EQ(server.finish(0, 2), "");
    while (!server.done())
        server.pump();
    EXPECT_TRUE(server.hitCycleLimit());
    const ReplayStats stats = server.stats();
    EXPECT_TRUE(stats.hitCycleLimit);
    EXPECT_GE(stats.outstanding, 1u); // the cycle-500 record
    EXPECT_EQ(stats.deliveries, 1u);
}

TEST(StreamingReplay, MatchesAcrossSourceKinds)
{
    // VectorTraceSource and chunk-at-a-time release must agree with
    // the legacy whole-vector replay on totals.
    const auto trace = clientTrace(0, 800);
    auto net1 = makeNet();
    traffic::VectorTraceSource src(trace);
    const ReplayStats s1 = replayTraceStream(net1, src);
    auto net2 = makeNet();
    const traffic::TraceReplayResult legacy =
        traffic::replayTrace(net2, trace);
    EXPECT_EQ(s1.messages, trace.size());
    EXPECT_EQ(s1.deliveries, legacy.deliveries);
    EXPECT_EQ(s1.completionCycle, legacy.completionCycle);
    EXPECT_DOUBLE_EQ(s1.avgLatency, legacy.avgLatency);
    EXPECT_FALSE(s1.hitCycleLimit);
}

TEST(StreamingReplay, SurfacesCycleLimit)
{
    std::vector<TraceRecord> trace;
    trace.push_back({0, 0, 1, MessageKind::Synthetic, 1});
    trace.push_back({5000, 2, 3, MessageKind::Synthetic, 2});
    auto net = makeNet();
    traffic::VectorTraceSource src(trace);
    ReplayOptions opts;
    opts.maxCycles = 100;
    const ReplayStats s = replayTraceStream(net, src, opts);
    EXPECT_TRUE(s.hitCycleLimit);
    EXPECT_GE(s.outstanding, 1u);
    EXPECT_EQ(s.deliveries, 1u);
}

TEST(ReplayCore, SmallWindowWrapsInReleaseOrder)
{
    // 300 records from four sources in the first few cycles swamp
    // their NICs, so a 3-slot window fills and wraps many times.
    // Injection is head-of-line, so the network must accept the
    // records in exactly their trace order.
    std::vector<TraceRecord> trace;
    for (uint64_t i = 0; i < 300; ++i) {
        const auto src = static_cast<NodeId>(i % 4);
        trace.push_back({i / 100, src, static_cast<NodeId>(src + 9),
                         MessageKind::Synthetic, i + 1});
    }
    auto inner = makeNet();
    traffic::RecordingNetwork net(inner);
    ReplayCore core(net, 3);
    size_t next = 0;
    while (net.now() < 100000) {
        while (next < trace.size() && trace[next].cycle <= net.now() &&
               core.windowHasSpace())
            core.release(trace[next++]);
        ASSERT_LE(core.pendingCount(), 3u);
        core.injectPending();
        if (next == trace.size() && core.quiescent())
            break;
        core.stepAndHarvest();
    }
    ASSERT_TRUE(core.quiescent());
    EXPECT_EQ(core.deliveries(), trace.size());
    ASSERT_EQ(net.recorded().size(), trace.size());
    for (size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(net.recorded()[i].tag, trace[i].tag) << "record " << i;
}

} // namespace
} // namespace phastlane::sim

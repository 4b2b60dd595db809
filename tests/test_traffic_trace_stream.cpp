/**
 * @file
 * Binary trace codec tests (DESIGN.md §15): varint properties,
 * text<->binary round trips, streaming access, the compression-ratio
 * claim, and a corpus of malformed/truncated streams that must fail
 * loudly instead of replaying as a shorter workload.
 */

#include <cstdio>
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "traffic/trace.hpp"
#include "traffic/trace_stream.hpp"
#include "temp_path.hpp"

namespace phastlane::traffic {
namespace {

std::vector<TraceRecord>
randomTrace(size_t n, int nodes, uint64_t seed)
{
    Rng rng(seed);
    std::vector<TraceRecord> t;
    Cycle cycle = 0;
    for (size_t i = 0; i < n; ++i) {
        cycle += static_cast<Cycle>(rng.uniformInt(0, 3));
        TraceRecord r;
        r.cycle = cycle;
        r.src = static_cast<NodeId>(rng.uniformInt(0, nodes - 1));
        if (rng.bernoulli(0.1)) {
            r.dst = kInvalidNode;
        } else {
            do {
                r.dst = static_cast<NodeId>(
                    rng.uniformInt(0, nodes - 1));
            } while (r.dst == r.src);
        }
        r.kind = static_cast<MessageKind>(rng.uniformInt(
            0, static_cast<int64_t>(MessageKind::Synthetic)));
        r.tag = static_cast<uint64_t>(rng.uniformInt(0, 1 << 20));
        t.push_back(r);
    }
    return t;
}

/** Read all of @p path into @p data; callers wrap the call in
 *  ASSERT_NO_FATAL_FAILURE so a missing file ends the test. */
void
slurp(const std::string &path, std::string &data)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr) << path;
    data.clear();
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        data.append(buf, n);
    std::fclose(f);
}

void
spit(const std::string &path, const std::string &data)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f),
              data.size());
    ASSERT_EQ(std::fclose(f), 0);
}

TEST(Varint, RoundTripBoundaries)
{
    const uint64_t values[] = {0,
                               1,
                               127,
                               128,
                               129,
                               16383,
                               16384,
                               (1ull << 32) - 1,
                               1ull << 32,
                               (1ull << 63) - 1,
                               1ull << 63,
                               ~0ull};
    for (uint64_t v : values) {
        std::string buf;
        putVarint(buf, v);
        EXPECT_LE(buf.size(), 10u);
        uint64_t got = 0;
        const size_t used = getVarint(
            reinterpret_cast<const uint8_t *>(buf.data()),
            buf.size(), got);
        EXPECT_EQ(used, buf.size()) << v;
        EXPECT_EQ(got, v);
    }
}

TEST(Varint, RandomRoundTrip)
{
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        // Bias toward varied magnitudes.
        const int shift = static_cast<int>(rng.uniformInt(0, 63));
        const uint64_t v =
            static_cast<uint64_t>(rng.uniformInt(0, 1 << 30))
            << shift;
        std::string buf;
        putVarint(buf, v);
        uint64_t got = 0;
        EXPECT_EQ(getVarint(
                      reinterpret_cast<const uint8_t *>(buf.data()),
                      buf.size(), got),
                  buf.size());
        EXPECT_EQ(got, v);
    }
}

TEST(Varint, TruncationReturnsZero)
{
    std::string buf;
    putVarint(buf, 1ull << 40);
    for (size_t cut = 0; cut < buf.size(); ++cut) {
        uint64_t got = 0;
        EXPECT_EQ(getVarint(
                      reinterpret_cast<const uint8_t *>(buf.data()),
                      cut, got),
                  0u);
    }
}

TEST(Varint, OverlongEncodingRejected)
{
    // 11 continuation bytes cannot be a valid 64-bit varint.
    const uint8_t bad[11] = {0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                             0x80, 0x80, 0x80, 0x80, 0x01};
    uint64_t got = 0;
    EXPECT_EQ(getVarint(bad, sizeof(bad), got), 0u);
    // A 10th byte with more than the top bit set overflows 64 bits.
    const uint8_t over[10] = {0x80, 0x80, 0x80, 0x80, 0x80,
                              0x80, 0x80, 0x80, 0x80, 0x02};
    EXPECT_EQ(getVarint(over, sizeof(over), got), 0u);
}

TEST(TraceStream, BinaryRoundTripMatchesText)
{
    const auto original = randomTrace(5000, 64, 11);
    const std::string bpath = test::tempPath("ts_roundtrip.pltrace");
    const std::string tpath = test::tempPath("ts_roundtrip.txt");
    writeTraceBinary(bpath, original, 64);
    writeTrace(tpath, original);
    const auto from_binary = readTraceBinary(bpath, 64);
    const auto from_text = readTrace(tpath, 64);
    EXPECT_EQ(from_binary, original);
    EXPECT_EQ(from_binary, from_text);
    std::remove(bpath.c_str());
    std::remove(tpath.c_str());
}

TEST(TraceStream, StreamingReaderMatchesBulkRead)
{
    const auto original = randomTrace(3000, 32, 5);
    const std::string path = test::tempPath("ts_stream.pltrace");
    // A small chunk size forces many chunk boundaries.
    TraceStreamOptions opts;
    opts.nodeCount = 32;
    opts.chunkRecords = 17;
    TraceStreamWriter w(path, opts);
    for (const auto &r : original)
        w.append(r);
    w.close();
    EXPECT_EQ(w.recordsWritten(), original.size());

    TraceStreamReader reader(path);
    EXPECT_EQ(reader.headerNodeCount(), 32);
    std::vector<TraceRecord> streamed;
    TraceRecord r;
    while (reader.next(r))
        streamed.push_back(r);
    EXPECT_EQ(streamed, original);
    EXPECT_EQ(reader.recordsRead(), original.size());
    std::remove(path.c_str());
}

TEST(TraceStream, EmptyTraceRoundTrips)
{
    const std::string path = test::tempPath("ts_empty.pltrace");
    writeTraceBinary(path, {}, 16);
    const auto loaded = readTraceBinary(path);
    EXPECT_TRUE(loaded.empty());
    std::remove(path.c_str());
}

TEST(TraceStream, BinaryAtLeastFourTimesSmallerThanText)
{
    // The acceptance claim: a representative synthetic trace must
    // compress >= 4x against its text form. Representative means
    // sequential message tags (what the generator and the recording
    // network emit), not adversarially random ones.
    auto trace = randomTrace(20000, 64, 3);
    uint64_t tag = 1;
    for (auto &r : trace)
        r.tag = tag++;
    const std::string bpath = test::tempPath("ts_size.pltrace");
    const std::string tpath = test::tempPath("ts_size.txt");
    writeTraceBinary(bpath, trace, 64);
    writeTrace(tpath, trace);
    std::string bdata;
    std::string tdata;
    ASSERT_NO_FATAL_FAILURE(slurp(bpath, bdata));
    ASSERT_NO_FATAL_FAILURE(slurp(tpath, tdata));
    const size_t bsize = bdata.size();
    const size_t tsize = tdata.size();
    EXPECT_GE(tsize, 4u * bsize)
        << "text " << tsize << " bytes vs binary " << bsize;
    std::remove(bpath.c_str());
    std::remove(tpath.c_str());
}

TEST(TraceStream, AutoDetectsFormat)
{
    const auto trace = randomTrace(100, 16, 9);
    const std::string bpath = test::tempPath("ts_auto.pltrace");
    const std::string tpath = test::tempPath("ts_auto.txt");
    writeTraceBinary(bpath, trace, 16);
    writeTrace(tpath, trace);
    EXPECT_TRUE(isBinaryTraceFile(bpath));
    EXPECT_FALSE(isBinaryTraceFile(tpath));
    EXPECT_EQ(readTraceAuto(bpath), trace);
    EXPECT_EQ(readTraceAuto(tpath), trace);
    std::remove(bpath.c_str());
    std::remove(tpath.c_str());
}

TEST(TraceStream, ChunkPayloadRoundTrip)
{
    const auto trace = randomTrace(500, 64, 13);
    std::string payload;
    encodeChunkPayload(trace.data(), trace.size(), payload);
    std::vector<TraceRecord> decoded;
    Cycle last = 0;
    const std::string err = decodeChunkPayload(
        reinterpret_cast<const uint8_t *>(payload.data()),
        payload.size(), trace.size(), 64, last, decoded);
    EXPECT_EQ(err, "");
    EXPECT_EQ(decoded, trace);
    EXPECT_EQ(last, trace.back().cycle);
}

TEST(TraceStream, ChunkPayloadRejectsRegressionAcrossChunks)
{
    // A chunk whose first record predates the previous chunk's last
    // cycle must be rejected (the server relies on this to keep the
    // watermark promise honest).
    std::vector<TraceRecord> recs;
    recs.push_back({5, 0, 1, MessageKind::Synthetic, 1});
    std::string payload;
    encodeChunkPayload(recs.data(), recs.size(), payload);
    std::vector<TraceRecord> decoded;
    Cycle last = 10; // previous chunk ended at cycle 10
    const std::string err = decodeChunkPayload(
        reinterpret_cast<const uint8_t *>(payload.data()),
        payload.size(), recs.size(), 64, last, decoded);
    EXPECT_NE(err, "");
}

TEST(TraceStream, ChunkPayloadRejectsTruncation)
{
    const auto trace = randomTrace(50, 64, 17);
    std::string payload;
    encodeChunkPayload(trace.data(), trace.size(), payload);
    // Every proper prefix must fail (mid-varint EOF included).
    for (size_t cut = 0; cut < payload.size();
         cut += 1 + cut / 8) {
        std::vector<TraceRecord> decoded;
        Cycle last = 0;
        EXPECT_NE(decodeChunkPayload(
                      reinterpret_cast<const uint8_t *>(
                          payload.data()),
                      cut, trace.size(), 64, last, decoded),
                  "")
            << "prefix of " << cut << " bytes decoded";
    }
    // Trailing garbage must fail too.
    std::string padded = payload;
    padded.push_back('\0');
    std::vector<TraceRecord> decoded;
    Cycle last = 0;
    EXPECT_NE(decodeChunkPayload(
                  reinterpret_cast<const uint8_t *>(padded.data()),
                  padded.size(), trace.size(), 64, last, decoded),
              "");
}

TEST(TraceStream, ChunkPayloadRejectsBadNodes)
{
    std::vector<TraceRecord> recs;
    recs.push_back({0, 63, 1, MessageKind::Synthetic, 1});
    std::string payload;
    encodeChunkPayload(recs.data(), recs.size(), payload);
    std::vector<TraceRecord> decoded;
    Cycle last = 0;
    // src 63 is out of range for a 16-node network.
    EXPECT_NE(decodeChunkPayload(
                  reinterpret_cast<const uint8_t *>(payload.data()),
                  payload.size(), recs.size(), 16, last, decoded),
              "");
}

// ---------------------------------------------------------------------
// Malformed-file corpus: every corruption must fatal(), loudly.
// ---------------------------------------------------------------------

using TraceStreamDeathTest = ::testing::Test;

std::string
validFile()
{
    const std::string path = test::tempPath("ts_death_src.pltrace");
    writeTraceBinary(path, randomTrace(300, 64, 23), 64);
    return path;
}

TEST(TraceStreamDeathTest, BadMagic)
{
    const std::string path = validFile();
    std::string data;
    ASSERT_NO_FATAL_FAILURE(slurp(path, data));
    data[0] = 'X';
    const std::string bad = test::tempPath("ts_bad_magic.pltrace");
    spit(bad, data);
    EXPECT_DEATH(readTraceBinary(bad), "magic");
    std::remove(path.c_str());
    std::remove(bad.c_str());
}

TEST(TraceStreamDeathTest, UnsupportedVersion)
{
    const std::string path = validFile();
    std::string data;
    ASSERT_NO_FATAL_FAILURE(slurp(path, data));
    data[4] = 99;
    const std::string bad = test::tempPath("ts_bad_version.pltrace");
    spit(bad, data);
    EXPECT_DEATH(readTraceBinary(bad), "version");
    std::remove(path.c_str());
    std::remove(bad.c_str());
}

TEST(TraceStreamDeathTest, TruncationAnywhereIsDetected)
{
    // Chop the file at several byte offsets, including mid-varint
    // and mid-chunk: a truncated stream must never load as a valid
    // (shorter) trace.
    const std::string path = validFile();
    std::string data;
    ASSERT_NO_FATAL_FAILURE(slurp(path, data));
    const std::string bad = test::tempPath("ts_truncated.pltrace");
    for (size_t cut = 1; cut < data.size();
         cut += 1 + data.size() / 11) {
        spit(bad, data.substr(0, cut));
        EXPECT_DEATH(readTraceBinary(bad), "");
    }
    // Dropping just the end marker must also die.
    spit(bad, data.substr(0, data.size() - 2));
    EXPECT_DEATH(readTraceBinary(bad), "");
    std::remove(path.c_str());
    std::remove(bad.c_str());
}

TEST(TraceStreamDeathTest, TrailingBytesAfterEndMarker)
{
    const std::string path = validFile();
    std::string data;
    ASSERT_NO_FATAL_FAILURE(slurp(path, data));
    data += "junk";
    const std::string bad = test::tempPath("ts_trailing.pltrace");
    spit(bad, data);
    EXPECT_DEATH(readTraceBinary(bad), "");
    std::remove(path.c_str());
    std::remove(bad.c_str());
}

TEST(TraceStreamDeathTest, OversizedChunkFraming)
{
    // header + a chunk claiming an absurd payload size.
    std::string data(kTraceMagic, sizeof(kTraceMagic));
    data.push_back(static_cast<char>(kTraceVersion));
    data.push_back('\0'); // flags
    putVarint(data, 0);   // nodeCount
    putVarint(data, kMaxChunkBytes + 1);
    putVarint(data, 1);
    const std::string bad = test::tempPath("ts_oversized.pltrace");
    spit(bad, data);
    EXPECT_DEATH(readTraceBinary(bad), "");
    std::remove(bad.c_str());
}

TEST(TraceStreamDeathTest, OutOfOrderCyclesAcrossChunks)
{
    // Two hand-built chunks whose cycles regress between them.
    std::vector<TraceRecord> first;
    first.push_back({10, 0, 1, MessageKind::Synthetic, 1});
    std::vector<TraceRecord> second;
    second.push_back({5, 0, 1, MessageKind::Synthetic, 2});
    std::string data(kTraceMagic, sizeof(kTraceMagic));
    data.push_back(static_cast<char>(kTraceVersion));
    data.push_back('\0');
    putVarint(data, 0);
    for (const auto *chunk : {&first, &second}) {
        std::string payload;
        encodeChunkPayload(chunk->data(), chunk->size(), payload);
        putVarint(data, payload.size());
        putVarint(data, chunk->size());
        data += payload;
    }
    putVarint(data, 0);
    putVarint(data, 0);
    const std::string bad = test::tempPath("ts_regress.pltrace");
    spit(bad, data);
    EXPECT_DEATH(readTraceBinary(bad), "");
    std::remove(bad.c_str());
}

TEST(TraceStreamDeathTest, WriterRejectsOutOfOrderAppend)
{
    const std::string path = test::tempPath("ts_writer_order.pltrace");
    EXPECT_DEATH(
        {
            TraceStreamWriter w(path);
            w.append({10, 0, 1, MessageKind::Synthetic, 1});
            w.append({5, 0, 1, MessageKind::Synthetic, 2});
        },
        "");
    std::remove(path.c_str());
}

TEST(TraceStreamDeathTest, WriterRejectsInvalidRecord)
{
    const std::string path = test::tempPath("ts_writer_node.pltrace");
    TraceStreamOptions opts;
    opts.nodeCount = 16;
    EXPECT_DEATH(
        {
            TraceStreamWriter w(path, opts);
            w.append({0, 99, 1, MessageKind::Synthetic, 1});
        },
        "");
    std::remove(path.c_str());
}

TEST(TraceStreamDeathTest, ReaderEnforcesNodeCount)
{
    // File written for 64 nodes, replayed against a 16-node target.
    const std::string path = test::tempPath("ts_reader_nodes.pltrace");
    std::vector<TraceRecord> recs;
    recs.push_back({0, 40, 1, MessageKind::Synthetic, 1});
    writeTraceBinary(path, recs, 64);
    EXPECT_DEATH(readTraceBinary(path, 16), "");
    std::remove(path.c_str());
}

} // namespace
} // namespace phastlane::traffic

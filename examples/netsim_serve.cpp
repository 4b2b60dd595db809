/**
 * @file
 * The simulation daemon and its tooling (DESIGN.md §15): a
 * long-running server that multiplexes binary workload streams from
 * concurrent clients over a local (Unix-domain) socket onto one live
 * network, plus the surrounding trace utilities. A served run is
 * byte-identical to an offline replay of the canonically merged
 * client traces.
 *
 *   # serve two clients on one Optical4 instance
 *   ./examples/netsim_serve --serve /tmp/pl.sock --clients 2 \
 *       --config Optical4 --metrics-out live_metrics.json \
 *       --snapshot-interval 4096
 *
 *   # stream a trace into the daemon (one process per client)
 *   ./examples/netsim_serve --connect /tmp/pl.sock --client-id 0 \
 *       --trace a.pltrace
 *
 *   # generate / merge / replay binary traces offline
 *   ./examples/netsim_serve --gen a.pltrace --records 1000000 \
 *       --rate 0.05 --seed 1
 *   ./examples/netsim_serve --merge all.pltrace --inputs a.pltrace,b.pltrace
 *   ./examples/netsim_serve --replay all.pltrace --config Optical4
 *
 * Wire protocol (framed over SOCK_STREAM):
 *   frame  := u32le length | u8 type | payload[length-1]
 *   HELLO  (1) c->s: varint clientId
 *   SUBMIT (2) c->s: varint seq | varint recordCount | chunk payload
 *              (trace_stream.hpp chunk encoding, self-contained)
 *   FIN    (3) c->s: varint seq
 *   ACK    (4) s->c: varint seq | u8 duplicateFlag
 *   RESULT (5) s->c: canonical replay report text
 *   ERROR  (6) s->c: error text
 *   BUSY   (7) s->c: keepalive -- an ack is deferred for
 *              backpressure, not lost; do not retransmit
 *
 * Clients run stop-and-wait with retransmission (the ReliableNic
 * idiom): a SUBMIT is resent until its ACK arrives; the server
 * deduplicates by per-client sequence number, so injection is
 * at-most-once no matter how often a chunk is retried. A BUSY frame
 * resets the client's retry budget: over the reliable local stream
 * the only reason an ack is late is deliberate deferral, so the
 * client just keeps waiting instead of resending the chunk.
 *
 * A connection that errors before a successful HELLO (stray extra
 * client, duplicate id, malformed frame) is sent an ERROR and
 * dropped without disturbing the round; a post-HELLO protocol error
 * still aborts the round (determinism is gone), but the ERROR frame
 * is drained first. A client that disconnects after its FIN was
 * accepted simply forfeits its copy of the RESULT.
 */

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/config.hpp"
#include "common/geometry.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/network.hpp"
#include "obs/observe.hpp"
#include "sim/configs.hpp"
#include "sim/replay.hpp"
#include "sim/server.hpp"
#include "traffic/trace.hpp"
#include "traffic/trace_stream.hpp"

using namespace phastlane;
using traffic::TraceRecord;

namespace {

constexpr uint8_t kMsgHello = 1;
constexpr uint8_t kMsgSubmit = 2;
constexpr uint8_t kMsgFin = 3;
constexpr uint8_t kMsgAck = 4;
constexpr uint8_t kMsgResult = 5;
constexpr uint8_t kMsgError = 6;
constexpr uint8_t kMsgBusy = 7;
constexpr uint32_t kMaxFrameBytes = 1u << 24;

std::string
frameMsg(uint8_t type, const std::string &payload)
{
    const uint32_t len = static_cast<uint32_t>(payload.size()) + 1;
    std::string f;
    f.reserve(5 + payload.size());
    f.push_back(static_cast<char>(len & 0xff));
    f.push_back(static_cast<char>((len >> 8) & 0xff));
    f.push_back(static_cast<char>((len >> 16) & 0xff));
    f.push_back(static_cast<char>((len >> 24) & 0xff));
    f.push_back(static_cast<char>(type));
    f += payload;
    return f;
}

/**
 * Pull complete frames out of @p buf (consumed in place). Returns
 * false when no complete frame is buffered. On an oversized or
 * zero-length frame: sets @p err and returns false when @p err is
 * given (the server drops just that connection), else fatal() (the
 * client has no one to keep serving).
 */
bool
popFrame(std::string &buf, uint8_t &type, std::string &payload,
         std::string *err = nullptr)
{
    if (buf.size() < 4)
        return false;
    const auto *b = reinterpret_cast<const uint8_t *>(buf.data());
    const uint32_t len = static_cast<uint32_t>(b[0]) |
                         (static_cast<uint32_t>(b[1]) << 8) |
                         (static_cast<uint32_t>(b[2]) << 16) |
                         (static_cast<uint32_t>(b[3]) << 24);
    if (len == 0 || len > kMaxFrameBytes) {
        if (err) {
            *err = detail::formatMsg("malformed frame length %u", len);
            return false;
        }
        fatal("malformed frame length %u", len);
    }
    if (buf.size() < 4u + len)
        return false;
    type = static_cast<uint8_t>(buf[4]);
    payload.assign(buf, 5, len - 1);
    buf.erase(0, 4u + len);
    return true;
}

/** Build the network for --serve/--replay from --config/--mesh. */
std::unique_ptr<Network>
buildNetwork(const Config &args)
{
    const sim::NetConfig cfg =
        sim::makeConfig(args.getString("config", "Optical4"));
    const uint64_t seed =
        static_cast<uint64_t>(args.getInt("seed", 42));
    auto net = cfg.make(seed);
    if (args.has("mesh")) {
        auto *pl = dynamic_cast<core::PhastlaneNetwork *>(net.get());
        if (!pl)
            fatal("--mesh supports optical (Phastlane) "
                  "configurations only");
        const std::string spec = args.getString("mesh", "");
        core::PhastlaneParams p = pl->params();
        if (!parseMeshSpec(spec, p.meshWidth, p.meshHeight))
            fatal("--mesh expects WxH with positive dimensions "
                  "(got '%s')",
                  spec.c_str());
        net = std::make_unique<core::PhastlaneNetwork>(p);
    }
    return net;
}

sim::ReplayOptions
replayOptions(const Config &args)
{
    sim::ReplayOptions opts;
    opts.maxCycles =
        static_cast<Cycle>(args.getInt("max-cycles", 10000000));
    opts.maxPending =
        static_cast<size_t>(args.getInt("max-pending", 4096));
    return opts;
}

/** Open @p path as a streaming TraceSource (binary streams directly;
 *  text loads once). */
struct OpenedTrace {
    std::unique_ptr<traffic::TraceStreamReader> stream;
    std::vector<TraceRecord> records;
    std::unique_ptr<traffic::VectorTraceSource> vec;
    traffic::TraceSource *src = nullptr;
};

OpenedTrace
openTrace(const std::string &path, int node_count)
{
    OpenedTrace t;
    if (traffic::isBinaryTraceFile(path)) {
        t.stream = std::make_unique<traffic::TraceStreamReader>(
            path, node_count);
        t.src = t.stream.get();
    } else {
        t.records = traffic::readTrace(path, node_count);
        t.vec = std::make_unique<traffic::VectorTraceSource>(
            t.records);
        t.src = t.vec.get();
    }
    return t;
}

// ---------------------------------------------------------------------
// --serve: the daemon
// ---------------------------------------------------------------------

struct ServeConn {
    int fd = -1;
    std::string in;
    std::string out;
    bool hello = false;
    uint64_t clientId = 0;
    bool finished = false;
};

/** Close and mark dead (fd -1). Dead entries stay in the conns
 *  vector so pollfd indices keep lining up; poll() ignores negative
 *  fds and every consumer skips them. */
void
closeConn(ServeConn &c)
{
    if (c.fd >= 0)
        ::close(c.fd);
    c.fd = -1;
    c.in.clear();
    c.out.clear();
}

/** Write as much of c.out as the socket accepts right now. A peer
 *  that is gone (EPIPE/ECONNRESET) just drops that connection -- a
 *  client bailing out must not kill the round for everyone else. */
void
flushConn(ServeConn &c)
{
    while (c.fd >= 0 && !c.out.empty()) {
        const ssize_t n = ::write(c.fd, c.out.data(), c.out.size());
        if (n > 0) {
            c.out.erase(0, static_cast<size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return;
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) {
            warn("client %llu went away mid-write; dropping the "
                 "connection",
                 static_cast<unsigned long long>(c.clientId));
            closeConn(c);
            return;
        }
        fatal("write to client %llu failed: %s",
              static_cast<unsigned long long>(c.clientId),
              std::strerror(errno));
    }
}

/** Blocking drain of c.out, bounded by @p timeout_ms; drops the
 *  connection if the peer will not take the bytes in time. Used for
 *  the final RESULT and for ERROR frames that must reach the peer
 *  before we close or abort. */
void
drainConn(ServeConn &c, int timeout_ms)
{
    int waited = 0;
    for (;;) {
        flushConn(c);
        if (c.fd < 0 || c.out.empty())
            return;
        if (waited >= timeout_ms) {
            warn("client %llu did not drain %zu pending bytes; "
                 "dropping the connection",
                 static_cast<unsigned long long>(c.clientId),
                 c.out.size());
            closeConn(c);
            return;
        }
        pollfd pfd{c.fd, POLLOUT, 0};
        const int r = ::poll(&pfd, 1, 50);
        if (r < 0 && errno != EINTR)
            fatal("poll: %s", std::strerror(errno));
        waited += 50;
    }
}

int
serveMain(const Config &args)
{
    const std::string sock_path = args.getString("serve", "");
    const int clients =
        static_cast<int>(args.getInt("clients", 1));
    if (clients < 1)
        fatal("--clients must be >= 1");

    auto net = buildNetwork(args);

    sim::ServerOptions sopts;
    sopts.expectedSessions = static_cast<size_t>(clients);
    sopts.maxPending =
        static_cast<size_t>(args.getInt("max-pending", 4096));
    sopts.inboxSoftCap =
        static_cast<size_t>(args.getInt("inbox-cap", 8192));
    sopts.maxCycles =
        static_cast<Cycle>(args.getInt("max-cycles", 10000000));
    sopts.snapshotInterval =
        static_cast<Cycle>(args.getInt("snapshot-interval", 0));
    sim::SimServer server(*net, sopts);

    // Live observability: metrics/heatmap snapshots published through
    // the src/obs/ observers every --snapshot-interval cycles.
    const std::string metrics_path =
        args.getString("metrics-out", "");
    const std::string heatmap_path =
        args.getString("heatmap-csv", "");
    obs::MetricsRegistry registry;
    std::unique_ptr<obs::MetricsObserver> recorder;
    if (!metrics_path.empty() || !heatmap_path.empty()) {
        auto *pl = dynamic_cast<core::PhastlaneNetwork *>(net.get());
        if (!pl)
            fatal("--metrics-out/--heatmap-csv support optical "
                  "(Phastlane) configurations only");
        obs::ObserveOptions oopts;
        oopts.heatmapInterval =
            heatmap_path.empty()
                ? 0
                : (sopts.snapshotInterval ? sopts.snapshotInterval
                                          : 4096);
        recorder = std::make_unique<obs::MetricsObserver>(*pl,
                                                          registry,
                                                          oopts);
        pl->setObserver(recorder.get());
    }
    auto publish = [&](Cycle) {
        if (!metrics_path.empty())
            registry.writeJson(metrics_path);
        if (recorder && !heatmap_path.empty()) {
            if (const auto *hm = recorder->heatmap())
                hm->writeCsv(heatmap_path);
        }
    };
    if (sopts.snapshotInterval && recorder)
        server.setSnapshotHook(publish);

    const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (lfd < 0)
        fatal("socket: %s", std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (sock_path.size() >= sizeof(addr.sun_path))
        fatal("socket path '%s' too long", sock_path.c_str());
    std::strncpy(addr.sun_path, sock_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(sock_path.c_str());
    if (::bind(lfd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        fatal("bind %s: %s", sock_path.c_str(),
              std::strerror(errno));
    if (::listen(lfd, 16) != 0)
        fatal("listen: %s", std::strerror(errno));
    if (::fcntl(lfd, F_SETFL, O_NONBLOCK) != 0)
        fatal("fcntl: %s", std::strerror(errno));

    inform("serving on %s (config %s, %d client%s expected)",
           sock_path.c_str(),
           args.getString("config", "Optical4").c_str(), clients,
           clients == 1 ? "" : "s");

    std::vector<ServeConn> conns;
    char buf[1 << 16];

    while (!server.done()) {
        // fds[0] is the listener; fds[i + 1] mirrors conns[i] for the
        // first npolled connections. Connections accepted below join
        // the poll set on the next iteration; dead entries (fd -1)
        // stay in place -- poll() ignores negative fds -- so the
        // index correspondence never shifts.
        const size_t npolled = conns.size();
        std::vector<pollfd> fds;
        fds.push_back(pollfd{lfd, POLLIN, 0});
        for (const auto &c : conns) {
            short ev = POLLIN;
            if (!c.out.empty())
                ev |= POLLOUT;
            fds.push_back(pollfd{c.fd, ev, 0});
        }
        if (::poll(fds.data(), fds.size(), 100) < 0) {
            if (errno == EINTR)
                continue;
            fatal("poll: %s", std::strerror(errno));
        }

        if (fds[0].revents & POLLIN) {
            for (;;) {
                const int cfd = ::accept(lfd, nullptr, nullptr);
                if (cfd < 0)
                    break;
                if (::fcntl(cfd, F_SETFL, O_NONBLOCK) != 0)
                    fatal("fcntl: %s", std::strerror(errno));
                ServeConn c;
                c.fd = cfd;
                conns.push_back(c);
            }
        }

        for (size_t i = 0; i < npolled; ++i) {
            ServeConn &c = conns[i];
            if (c.fd < 0 ||
                !(fds[i + 1].revents & (POLLIN | POLLHUP)))
                continue;
            bool eof = false;
            for (;;) {
                const ssize_t n = ::read(c.fd, buf, sizeof(buf));
                if (n > 0) {
                    c.in.append(buf, static_cast<size_t>(n));
                    if (static_cast<size_t>(n) < sizeof(buf))
                        break; // drained the socket
                    continue;
                }
                if (n == 0) {
                    // Resolved below, after any frames that arrived
                    // ahead of the close (e.g. the FIN) are handled.
                    eof = true;
                    break;
                }
                if (errno == EAGAIN || errno == EWOULDBLOCK ||
                    errno == EINTR)
                    break;
                fatal("read from client: %s", std::strerror(errno));
            }

            uint8_t type = 0;
            std::string payload;
            std::string frame_err;
            while (c.fd >= 0 &&
                   popFrame(c.in, type, payload, &frame_err)) {
                const auto *p =
                    reinterpret_cast<const uint8_t *>(payload.data());
                const size_t n = payload.size();
                std::string err;
                if (type == kMsgHello) {
                    uint64_t id = 0;
                    const size_t u = traffic::getVarint(p, n, id);
                    if (u == 0)
                        err = "malformed HELLO";
                    else
                        err = server.openSession(id);
                    if (err.empty()) {
                        c.hello = true;
                        c.clientId = id;
                    }
                } else if (type == kMsgSubmit && c.hello) {
                    uint64_t seq = 0;
                    uint64_t nrec = 0;
                    size_t off = traffic::getVarint(p, n, seq);
                    const size_t u2 = off == 0
                        ? 0
                        : traffic::getVarint(p + off, n - off, nrec);
                    if (u2 == 0 || nrec == 0 ||
                        nrec > traffic::kMaxChunkRecords) {
                        err = "malformed SUBMIT header";
                    } else {
                        off += u2;
                        std::vector<TraceRecord> recs;
                        Cycle lc = 0;
                        err = traffic::decodeChunkPayload(
                            p + off, n - off,
                            static_cast<size_t>(nrec),
                            net->nodeCount(), lc, recs);
                        if (err.empty())
                            err = server.submit(c.clientId, seq,
                                                recs);
                    }
                } else if (type == kMsgFin && c.hello) {
                    uint64_t seq = 0;
                    if (traffic::getVarint(p, n, seq) == 0)
                        err = "malformed FIN";
                    else
                        err = server.finish(c.clientId, seq);
                    if (err.empty())
                        c.finished = true;
                } else {
                    err = detail::formatMsg(
                        "unexpected message type %u", type);
                }
                if (!err.empty()) {
                    // Before a session is established the round is
                    // untouched: reject just this connection (stray
                    // extra client, duplicate id, garbage) and keep
                    // serving. After HELLO the client is part of the
                    // deterministic round, so a protocol error from
                    // it aborts the round -- but its ERROR frame is
                    // drained first so the peer learns why.
                    const bool established = c.hello;
                    c.out += frameMsg(kMsgError, err);
                    drainConn(c, 2000);
                    if (!established) {
                        warn("rejecting connection: %s", err.c_str());
                        closeConn(c);
                        break;
                    }
                    fatal("protocol error from client %llu: %s",
                          static_cast<unsigned long long>(
                              c.clientId),
                          err.c_str());
                }
            }
            if (c.fd >= 0 && !frame_err.empty()) {
                c.out += frameMsg(kMsgError, frame_err);
                drainConn(c, 2000);
                if (!c.hello) {
                    warn("rejecting connection: %s",
                         frame_err.c_str());
                    closeConn(c);
                } else {
                    fatal("protocol error from client %llu: %s",
                          static_cast<unsigned long long>(c.clientId),
                          frame_err.c_str());
                }
            }
            if (eof && c.fd >= 0) {
                if (!c.hello) {
                    warn("dropping a connection that closed before "
                         "HELLO");
                    closeConn(c);
                } else if (c.finished) {
                    // Post-FIN disconnect: the client forfeits its
                    // RESULT copy; the round is unaffected. Closing
                    // here also stops the fd from reporting POLLHUP
                    // on every poll (a 100% CPU spin) and from
                    // taking an EPIPE on the final RESULT write.
                    closeConn(c);
                } else {
                    fatal("client %llu disconnected before FIN; "
                          "the round cannot complete "
                          "deterministically",
                          static_cast<unsigned long long>(
                              c.clientId));
                }
            }
        }

        server.pump();

        for (const auto &ack : server.takeReadyAcks()) {
            for (auto &c : conns) {
                if (c.fd >= 0 && c.hello &&
                    c.clientId == ack.clientId) {
                    std::string pl;
                    traffic::putVarint(pl, ack.seq);
                    pl.push_back(ack.duplicate ? 1 : 0);
                    c.out += frameMsg(kMsgAck, pl);
                    break;
                }
            }
        }
        // Keepalive: a client whose ack is deliberately withheld
        // (inbox backpressure, or the round waiting on other
        // sessions) is told so, so its retry timer never mistakes
        // the deferral for a lost ack. The 100ms poll timeout bounds
        // how stale this signal can get.
        for (auto &c : conns) {
            if (c.fd >= 0 && c.hello && !c.finished &&
                server.deferredAckCount(c.clientId) > 0)
                c.out += frameMsg(kMsgBusy, "");
        }
        for (auto &c : conns)
            flushConn(c);
    }

    publish(net->now());
    const std::string report =
        sim::formatReplayReport(server.stats(), *net);
    for (auto &c : conns) {
        if (c.fd < 0)
            continue; // disconnected after FIN: forfeits the RESULT
        c.out += frameMsg(kMsgResult, report);
        drainConn(c, 10000);
        closeConn(c);
    }
    ::close(lfd);
    ::unlink(sock_path.c_str());
    std::fputs(report.c_str(), stdout);
    for (const auto &c : conns) {
        if (!c.hello)
            continue;
        std::printf("client %llu: accepted %llu records\n",
                    static_cast<unsigned long long>(c.clientId),
                    static_cast<unsigned long long>(
                        server.acceptedRecords(c.clientId)));
    }
    return server.hitCycleLimit() ? 2 : 0;
}

// ---------------------------------------------------------------------
// --connect: the streaming client
// ---------------------------------------------------------------------

/** Blocking framed reader with a poll() timeout. */
struct FrameReader {
    int fd;
    std::string buf;

    /** false on timeout; fatal on EOF/error. */
    bool read(int timeout_ms, uint8_t &type, std::string &payload)
    {
        for (;;) {
            if (popFrame(buf, type, payload))
                return true;
            pollfd pfd{fd, POLLIN, 0};
            const int r = ::poll(&pfd, 1, timeout_ms);
            if (r == 0)
                return false;
            if (r < 0) {
                if (errno == EINTR)
                    continue;
                fatal("poll: %s", std::strerror(errno));
            }
            char tmp[1 << 16];
            const ssize_t n = ::read(fd, tmp, sizeof(tmp));
            if (n == 0)
                fatal("server closed the connection");
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                fatal("read: %s", std::strerror(errno));
            }
            buf.append(tmp, static_cast<size_t>(n));
        }
    }
};

/** Write all of @p data; false if the peer vanished mid-send
 *  (EPIPE/ECONNRESET) so the caller can surface the server's
 *  parting ERROR frame instead of a bare broken-pipe message. */
bool
sendAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::write(fd, data.data() + off, data.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EPIPE || errno == ECONNRESET)
                return false;
            fatal("write: %s", std::strerror(errno));
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

/** The server hung up on us mid-send. It drains an ERROR frame
 *  explaining why before closing (e.g. "client id already
 *  connected"), so read out the rest of the stream and report that
 *  reason rather than the broken pipe. */
[[noreturn]] void
dieServerClosed(FrameReader &reader)
{
    for (;;) {
        uint8_t type = 0;
        std::string payload;
        if (popFrame(reader.buf, type, payload)) {
            if (type == kMsgError)
                fatal("server error: %s", payload.c_str());
            continue; // skip stale acks/keepalives before the ERROR
        }
        char tmp[4096];
        const ssize_t n = ::read(reader.fd, tmp, sizeof(tmp));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            fatal("server closed the connection");
        reader.buf.append(tmp, static_cast<size_t>(n));
    }
}

int
connectMain(const Config &args)
{
    const std::string sock_path = args.getString("connect", "");
    const uint64_t client_id =
        static_cast<uint64_t>(args.getInt("client-id", 0));
    const std::string trace_path = args.getString("trace", "");
    if (trace_path.empty())
        fatal("--connect requires --trace <file>");
    const size_t chunk =
        static_cast<size_t>(args.getInt("chunk", 4096));
    const int ack_timeout_ms =
        static_cast<int>(args.getInt("ack-timeout-ms", 1000));
    const int retries =
        static_cast<int>(args.getInt("retries", 120));
    const int connect_wait_ms =
        static_cast<int>(args.getInt("connect-wait-ms", 10000));

    OpenedTrace trace = openTrace(trace_path, 0);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        fatal("socket: %s", std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (sock_path.size() >= sizeof(addr.sun_path))
        fatal("socket path '%s' too long", sock_path.c_str());
    std::strncpy(addr.sun_path, sock_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    // The daemon may still be starting: retry the connect briefly.
    int waited = 0;
    while (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)) != 0) {
        if (waited >= connect_wait_ms)
            fatal("cannot connect to %s: %s", sock_path.c_str(),
                  std::strerror(errno));
        ::usleep(100000);
        waited += 100;
    }

    FrameReader reader{fd, {}};
    std::string hello;
    traffic::putVarint(hello, client_id);
    if (!sendAll(fd, frameMsg(kMsgHello, hello)))
        dieServerClosed(reader);

    // Stop-and-wait with retransmission: resend until the matching
    // ACK arrives; the server dedups by sequence number, so a chunk
    // is injected at most once however often it is retried. A BUSY
    // keepalive means the ack is deliberately deferred (backpressure
    // or the round waiting on other clients), so it suppresses the
    // resend and resets the retry budget: the retry timer only
    // counts windows of total server silence.
    uint64_t retransmits = 0;
    auto sendChunkReliably = [&](const std::string &framed,
                                 uint64_t seq) {
        if (!sendAll(fd, framed))
            dieServerClosed(reader);
        int attempt = 0;
        for (;;) {
            bool saw_busy = false;
            uint8_t type = 0;
            std::string payload;
            while (reader.read(ack_timeout_ms, type, payload)) {
                if (type == kMsgError)
                    fatal("server error: %s", payload.c_str());
                if (type == kMsgBusy) {
                    saw_busy = true;
                    continue;
                }
                if (type != kMsgAck)
                    fatal("unexpected message type %u while waiting "
                          "for ack",
                          type);
                uint64_t got = 0;
                if (traffic::getVarint(
                        reinterpret_cast<const uint8_t *>(
                            payload.data()),
                        payload.size(), got) == 0)
                    fatal("malformed ACK");
                if (got == seq)
                    return;
                // A stale ack (earlier seq, or a duplicate of one we
                // already consumed) -- keep waiting.
            }
            // Timed out with no matching ack.
            if (saw_busy) {
                attempt = 0; // deferred, not lost: just keep waiting
                continue;
            }
            if (++attempt > retries)
                fatal("no ack for chunk %llu after %d attempts with "
                      "a silent server",
                      static_cast<unsigned long long>(seq),
                      retries + 1);
            if (!sendAll(fd, framed))
                dieServerClosed(reader);
            ++retransmits;
        }
    };

    uint64_t seq = 0;
    uint64_t sent_records = 0;
    std::vector<TraceRecord> chunk_buf;
    TraceRecord rec;
    bool have = trace.src->next(rec);
    while (have) {
        chunk_buf.clear();
        while (have && chunk_buf.size() < chunk) {
            chunk_buf.push_back(rec);
            have = trace.src->next(rec);
        }
        ++seq;
        std::string payload;
        traffic::putVarint(payload, seq);
        traffic::putVarint(payload, chunk_buf.size());
        traffic::encodeChunkPayload(chunk_buf.data(),
                                    chunk_buf.size(), payload);
        sendChunkReliably(frameMsg(kMsgSubmit, payload), seq);
        sent_records += chunk_buf.size();
    }
    ++seq;
    std::string fin;
    traffic::putVarint(fin, seq);
    sendChunkReliably(frameMsg(kMsgFin, fin), seq);
    inform("client %llu: streamed %llu records in %llu chunks "
           "(%llu retransmits); waiting for the round to complete",
           static_cast<unsigned long long>(client_id),
           static_cast<unsigned long long>(sent_records),
           static_cast<unsigned long long>(seq - 1),
           static_cast<unsigned long long>(retransmits));

    // Wait for the round's RESULT (other clients may still be
    // streaming; poll in result-timeout windows).
    const int result_timeout_ms =
        static_cast<int>(args.getInt("result-timeout-ms", 600000));
    int waited_result = 0;
    for (;;) {
        uint8_t type = 0;
        std::string payload;
        if (!reader.read(1000, type, payload)) {
            waited_result += 1000;
            if (waited_result >= result_timeout_ms)
                fatal("timed out waiting for the round result");
            continue;
        }
        if (type == kMsgError)
            fatal("server error: %s", payload.c_str());
        if (type == kMsgAck || type == kMsgBusy)
            continue; // stale duplicate ack / keepalive
        if (type != kMsgResult)
            fatal("unexpected message type %u", type);
        std::fputs(payload.c_str(), stdout);
        break;
    }
    ::close(fd);
    return 0;
}

// ---------------------------------------------------------------------
// --gen / --merge / --replay: offline tooling
// ---------------------------------------------------------------------

int
genMain(const Config &args)
{
    const std::string out = args.getString("gen", "");
    const uint64_t target =
        static_cast<uint64_t>(args.getInt("records", 100000));
    const int nodes = static_cast<int>(args.getInt("nodes", 64));
    const double rate = args.getDouble("rate", 0.05);
    const double bcast = args.getDouble("bcast", 0.0);
    const uint64_t seed =
        static_cast<uint64_t>(args.getInt("seed", 1));
    const int stride =
        static_cast<int>(args.getInt("src-stride", 1));
    const int offset =
        static_cast<int>(args.getInt("src-offset", 0));
    const std::string text_out = args.getString("text-out", "");
    if (nodes < 2 || rate <= 0.0 || rate > 1.0 || stride < 1 ||
        offset < 0 || offset >= stride)
        fatal("--gen needs --nodes >= 2, --rate in (0,1], and "
              "0 <= --src-offset < --src-stride");

    Rng rng(seed);
    traffic::TraceStreamOptions wopts;
    wopts.nodeCount = nodes;
    traffic::TraceStreamWriter w(out, wopts);
    std::vector<TraceRecord> text_records;
    uint64_t made = 0;
    uint64_t tag = 1;
    Cycle cycle = 0;
    while (made < target) {
        for (int n = offset; n < nodes && made < target;
             n += stride) {
            if (!rng.bernoulli(rate))
                continue;
            TraceRecord r;
            r.cycle = cycle;
            r.src = n;
            if (bcast > 0.0 && rng.bernoulli(bcast)) {
                r.dst = kInvalidNode;
            } else {
                do {
                    r.dst = static_cast<NodeId>(
                        rng.uniformInt(0, nodes - 1));
                } while (r.dst == r.src);
            }
            r.kind = MessageKind::Synthetic;
            r.tag = tag++;
            w.append(r);
            if (!text_out.empty())
                text_records.push_back(r);
            ++made;
        }
        ++cycle;
    }
    w.close();
    if (!text_out.empty())
        traffic::writeTrace(text_out, text_records);
    std::printf("generated %llu records over %llu cycles into %s\n",
                static_cast<unsigned long long>(made),
                static_cast<unsigned long long>(cycle),
                out.c_str());
    return 0;
}

int
mergeMain(const Config &args)
{
    const std::string out = args.getString("merge", "");
    const std::string inputs = args.getString("inputs", "");
    if (inputs.empty())
        fatal("--merge requires --inputs a.pltrace,b.pltrace,...");
    std::vector<std::string> paths;
    size_t start = 0;
    for (;;) {
        const size_t comma = inputs.find(',', start);
        paths.push_back(inputs.substr(start, comma - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }

    // Canonical merge order = (cycle, input index): input order must
    // be ascending client id for the result to match a served round.
    std::vector<OpenedTrace> traces;
    std::vector<TraceRecord> heads(paths.size());
    std::vector<bool> alive(paths.size());
    int max_nodes = 0;
    for (size_t i = 0; i < paths.size(); ++i) {
        traces.push_back(openTrace(paths[i], 0));
        if (traces[i].stream)
            max_nodes = std::max(max_nodes,
                                 traces[i].stream->headerNodeCount());
        alive[i] = traces[i].src->next(heads[i]);
    }
    traffic::TraceStreamOptions wopts;
    wopts.nodeCount =
        static_cast<int>(args.getInt("nodes", max_nodes));
    traffic::TraceStreamWriter w(out, wopts);
    uint64_t merged = 0;
    for (;;) {
        size_t best = paths.size();
        for (size_t i = 0; i < paths.size(); ++i) {
            if (!alive[i])
                continue;
            if (best == paths.size() ||
                heads[i].cycle < heads[best].cycle)
                best = i;
        }
        if (best == paths.size())
            break;
        w.append(heads[best]);
        ++merged;
        alive[best] = traces[best].src->next(heads[best]);
    }
    w.close();
    std::printf("merged %llu records from %zu traces into %s\n",
                static_cast<unsigned long long>(merged),
                paths.size(), out.c_str());
    return 0;
}

int
replayMain(const Config &args)
{
    const std::string path = args.getString("replay", "");
    auto net = buildNetwork(args);
    OpenedTrace trace = openTrace(path, net->nodeCount());
    const sim::ReplayStats stats =
        sim::replayTraceStream(*net, *trace.src,
                               replayOptions(args));
    std::fputs(sim::formatReplayReport(stats, *net).c_str(), stdout);
    return stats.hitCycleLimit ? 2 : 0;
}

std::vector<std::string>
knownFlags()
{
    return {
        "help",         "serve",          "connect",
        "replay",       "gen",            "merge",
        "inputs",       "config",         "mesh",
        "seed",         "clients",        "max-pending",
        "max-cycles",   "inbox-cap",      "snapshot-interval",
        "metrics-out",  "heatmap-csv",    "client-id",
        "trace",        "chunk",          "ack-timeout-ms",
        "retries",      "connect-wait-ms", "result-timeout-ms",
        "records",      "nodes",          "rate",
        "bcast",        "text-out",       "src-stride",
        "src-offset",
    };
}

} // namespace

int
main(int argc, char **argv)
{
    std::signal(SIGPIPE, SIG_IGN);
    const Config args = Config::fromArgs(argc, argv);
    args.requireKnown(knownFlags());
    if (args.getBool("help", false)) {
        std::printf(
            "usage: netsim_serve <mode> [options]\n"
            "  --serve SOCK     run the simulation daemon on a unix "
            "socket\n"
            "    --clients N --config NAME [--mesh WxH] [--seed S]\n"
            "    [--max-pending N] [--inbox-cap N] [--max-cycles N]\n"
            "    [--snapshot-interval N --metrics-out F "
            "--heatmap-csv F]\n"
            "  --connect SOCK   stream a trace into the daemon\n"
            "    --client-id K --trace FILE [--chunk N]\n"
            "    [--ack-timeout-ms T --retries R]\n"
            "  --replay FILE    offline replay printing the same "
            "canonical\n"
            "                   report a served round emits\n"
            "  --gen FILE       generate a binary trace\n"
            "    --records N [--nodes N --rate R --bcast F --seed "
            "S]\n"
            "    [--src-stride K --src-offset O] [--text-out FILE]\n"
            "  --merge OUT --inputs A,B,...  canonical (cycle, "
            "client)\n"
            "                   merge; input order = ascending "
            "client id\n");
        return 0;
    }
    const int modes = (args.has("serve") ? 1 : 0) +
                      (args.has("connect") ? 1 : 0) +
                      (args.has("replay") ? 1 : 0) +
                      (args.has("gen") ? 1 : 0) +
                      (args.has("merge") ? 1 : 0);
    if (modes != 1)
        fatal("pick exactly one of --serve/--connect/--replay/"
              "--gen/--merge (see --help)");
    if (args.has("serve"))
        return serveMain(args);
    if (args.has("connect"))
        return connectMain(args);
    if (args.has("replay"))
        return replayMain(args);
    if (args.has("gen"))
        return genMain(args);
    return mergeMain(args);
}

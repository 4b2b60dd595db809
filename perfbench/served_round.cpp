/**
 * @file
 * served_round: a multi-client round against the netsim_serve daemon.
 * The benchmark spawns `netsim_serve --serve` (Optical4) as a child
 * process and drives its clients over AF_UNIX from one thread, speaking
 * the DESIGN.md §15 frame protocol itself. Each client streams its own
 * seeded PLTR trace, encoding every chunk live with
 * traffic::encodeChunkPayload, stop-and-wait: closed loop at the host.
 * It is the only workload where the codec encodes (clients) beside
 * decoding (daemon), and where SimServer, ReplayCore and the socket
 * shim run; the simulated load is light.
 *
 * Every client's RESULT must byte-match sim::replayTraceStream on the
 * canonically merged trace, replayed here outside the timed region.
 */

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/network.hpp"
#include "sim/configs.hpp"
#include "sim/replay.hpp"
#include "trace.hpp"
#include "traffic/trace.hpp"
#include "traffic/trace_stream.hpp"

using namespace phastlane;
using traffic::TraceRecord;

namespace perfbench {

namespace {

constexpr int kClients = 2;
constexpr int kNodes = 64;
constexpr uint64_t kRecordsPerClient = 125000;
constexpr double kRate = 0.05; ///< packets/node/cycle, summed over clients
constexpr size_t kChunkRecords = 1024;
constexpr int kAckTimeoutMs = 1000;
constexpr int kMaxRetries = 120;
constexpr double kRoundTimeoutS = 20.0;
constexpr double kConnectTimeoutS = 10.0;

// Frame types (examples/netsim_serve.cpp, DESIGN.md §15).
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
    for (int i = 0; i < 4; ++i)
        f.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
    f.push_back(static_cast<char>(type));
    f += payload;
    return f;
}

/** Pop one complete frame from @p buf. Returns 1 on a frame, 0 when
 *  more bytes are needed, -1 on a malformed length. */
int
popFrame(std::string &buf, uint8_t &type, std::string &payload)
{
    if (buf.size() < 4)
        return 0;
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i)
        len |= static_cast<uint32_t>(static_cast<uint8_t>(buf[i]))
               << (8 * i);
    if (len == 0 || len > kMaxFrameBytes)
        return -1;
    if (buf.size() < 4u + len)
        return 0;
    type = static_cast<uint8_t>(buf[4]);
    payload.assign(buf, 5, len - 1);
    buf.erase(0, 4u + len);
    return 1;
}

/** Client @p id's trace: Bernoulli sources over its share of the
 *  nodes (node % clients == id), uniform-random destinations. */
std::vector<TraceRecord>
generateTrace(uint64_t seed, int id, int clients)
{
    Rng rng(seed * 1000003ull + static_cast<uint64_t>(id) + 1);
    std::vector<TraceRecord> out;
    out.reserve(kRecordsPerClient);
    uint64_t tag = 1;
    for (Cycle cycle = 0; out.size() < kRecordsPerClient; ++cycle) {
        for (int n = id; n < kNodes && out.size() < kRecordsPerClient;
             n += clients) {
            if (!rng.bernoulli(kRate))
                continue;
            TraceRecord r;
            r.cycle = cycle;
            r.src = n;
            do {
                r.dst = static_cast<NodeId>(rng.uniformInt(0, kNodes - 1));
            } while (r.dst == r.src);
            r.kind = MessageKind::Synthetic;
            r.tag = tag++;
            out.push_back(r);
        }
    }
    return out;
}

/** Canonical merge: ascending cycle, ties by client id, then in each
 *  client's order -- the order SimServer releases records in. */
std::vector<TraceRecord>
mergeTraces(const std::vector<std::vector<TraceRecord>> &traces)
{
    std::vector<TraceRecord> out;
    std::vector<size_t> next(traces.size(), 0);
    for (;;) {
        size_t best = traces.size();
        for (size_t i = 0; i < traces.size(); ++i) {
            if (next[i] == traces[i].size())
                continue;
            if (best == traces.size() ||
                traces[i][next[i]].cycle < traces[best][next[best]].cycle)
                best = i;
        }
        if (best == traces.size())
            return out;
        out.push_back(traces[best][next[best]++]);
    }
}

std::unique_ptr<Network>
makeNetwork(uint64_t seed)
{
    return sim::makeConfig("Optical4").make(seed);
}

/** A private directory under the run's work directory, removed with
 *  everything in it on destruction. */
class TempDir
{
  public:
    explicit TempDir(const std::string &parent)
    {
        std::string tmpl = parent + "/serve-XXXXXX";
        if (::mkdtemp(tmpl.data()))
            path_ = tmpl;
    }
    ~TempDir()
    {
        if (path_.empty())
            return;
        if (DIR *d = ::opendir(path_.c_str())) {
            while (const dirent *e = ::readdir(d)) {
                const std::string name = e->d_name;
                if (name != "." && name != "..")
                    ::unlink((path_ + "/" + name).c_str());
            }
            ::closedir(d);
        }
        ::rmdir(path_.c_str());
    }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    bool ok() const { return !path_.empty(); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** The daemon child process; killed and reaped on destruction unless
 *  it already exited through wait(). */
class Daemon
{
  public:
    Daemon(const std::string &exe, const std::vector<std::string> &args,
           const std::string &out_path, const std::string &err_path)
    {
        std::vector<char *> argv;
        argv.push_back(const_cast<char *>(exe.c_str()));
        for (const auto &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        pid_ = ::fork();
        if (pid_ == 0) {
            // Die with the benchmark, whatever ends it.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            const int out =
                ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
            const int err =
                ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
            if (out < 0 || err < 0 || ::dup2(out, 1) < 0 ||
                ::dup2(err, 2) < 0)
                ::_exit(126);
            ::execv(exe.c_str(), argv.data());
            ::_exit(127);
        }
    }
    ~Daemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            int status = 0;
            ::wait4(pid_, &status, 0, nullptr);
        }
    }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    bool started() const { return pid_ > 0; }

    /** True while the child has not exited (reaps it if it has). */
    bool alive()
    {
        if (pid_ <= 0)
            return false;
        int status = 0;
        rusage ru{};
        if (::wait4(pid_, &status, WNOHANG, &ru) == pid_) {
            pid_ = -1;
            status_ = status;
            usage_ = ru;
            return false;
        }
        return true;
    }

    /** Wait up to @p timeout_s for a clean exit; false on timeout (the
     *  child is then killed) or a non-zero exit status. */
    bool wait(double timeout_s)
    {
        const double deadline = nowSec() + timeout_s;
        while (alive()) {
            if (nowSec() > deadline) {
                ::kill(pid_, SIGKILL);
                ::wait4(pid_, &status_, 0, &usage_);
                pid_ = -1;
                return false;
            }
            ::usleep(1000);
        }
        return WIFEXITED(status_) && WEXITSTATUS(status_) == 0;
    }

    double peakRssMb() const
    {
        return static_cast<double>(usage_.ru_maxrss) / 1024.0;
    }
    double cpuSeconds() const
    {
        auto sec = [](const timeval &t) {
            return static_cast<double>(t.tv_sec) +
                   static_cast<double>(t.tv_usec) * 1e-6;
        };
        return sec(usage_.ru_utime) + sec(usage_.ru_stime);
    }
    int status() const { return status_; }

  private:
    pid_t pid_ = -1;
    int status_ = 0;
    rusage usage_{};
};

/** A connected socket, closed on destruction. */
class Fd
{
  public:
    Fd() = default;
    explicit Fd(int fd) : fd_(fd) {}
    ~Fd()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Fd(Fd &&o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
    Fd &operator=(Fd &&o) noexcept
    {
        std::swap(fd_, o.fd_);
        return *this;
    }
    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;
    int get() const { return fd_; }

  private:
    int fd_ = -1;
};

bool
sendAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                                 MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

/** Connect to @p path, retrying while the daemon starts up. */
Fd
connectTo(const std::string &path, Daemon &daemon)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    const double deadline = nowSec() + kConnectTimeoutS;
    while (nowSec() < deadline && daemon.alive()) {
        Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
        if (fd.get() < 0)
            return Fd();
        if (::connect(fd.get(), reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0)
            return fd;
        ::usleep(500);
    }
    return Fd();
}

/** One client's stop-and-wait state during a round. */
struct Client {
    uint64_t id = 0;
    Fd fd;
    const std::vector<TraceRecord> *records = nullptr;
    size_t next = 0;
    uint64_t seq = 0;
    std::string frame; ///< the outstanding SUBMIT/FIN
    size_t frameRecords = 0;
    bool waiting = false;
    bool fin = false;
    bool finAcked = false;
    bool haveResult = false;
    int attempts = 0;
    int64_t sentNs = 0;
    int64_t heardNs = 0;
    int64_t finAckNs = 0;
    int64_t resultNs = 0;
    std::vector<int64_t> ackNs; ///< when each SUBMIT was acknowledged
    std::string in;
    std::string result;
    uint64_t ackedRecords = 0;
    uint64_t submits = 0;
    uint64_t retransmits = 0;
    uint64_t busy = 0;
};

/** Everything one round measured. */
struct Round {
    bool ok = false;
    std::string error;
    double setupS = 0.0;
    double wallS = 0.0; ///< first HELLO -> last RESULT
    /** The round cut where every client has its k-th chunk
     *  acknowledged, as successive increments (s); the last one runs
     *  to the final RESULT. They sum to wallS. */
    std::vector<double> steps;
    std::vector<double> ackMs;
    std::vector<std::string> results;
    uint64_t chunks = 0;
    uint64_t records = 0;
    uint64_t retransmits = 0;
    uint64_t busy = 0;
    double resultWaitMs = 0.0;
    double daemonRssMb = 0.0;
    double daemonCpuS = 0.0;
    int64_t encodeNs = 0;
    uint64_t encodedBytes = 0;
};

/**
 * One served round: set up (generate the traces, spawn the daemon,
 * connect), then stream both clients' traces and collect the RESULTs.
 */
Round
runRound(const Options &opt, int clients, Tracer *tr)
{
    Round rd;
    const double s0 = nowSec();
    std::vector<std::vector<TraceRecord>> traces;
    {
        Scope gen(tr, "traffic.generate");
        for (int c = 0; c < clients; ++c)
            traces.push_back(generateTrace(opt.seed, c, clients));
    }
    TempDir dir(opt.workdir);
    if (!dir.ok()) {
        rd.error = "cannot create a private directory under " + opt.workdir;
        return rd;
    }
    const std::string sock = dir.path() + "/sock";
    if (sock.size() >= sizeof(sockaddr_un{}.sun_path)) {
        rd.error = "socket path too long: " + sock;
        return rd;
    }
    std::unique_ptr<Daemon> daemon;
    std::vector<Client> cl(static_cast<size_t>(clients));
    {
        Scope spawn(tr, "serve.spawn");
        daemon = std::make_unique<Daemon>(
            opt.daemon,
            std::vector<std::string>{
                "--serve", sock, "--clients", std::to_string(clients),
                "--config", "Optical4", "--seed", std::to_string(opt.seed)},
            dir.path() + "/stdout", dir.path() + "/stderr");
        if (!daemon->started()) {
            rd.error = "cannot start " + opt.daemon;
            return rd;
        }
        for (int c = 0; c < clients; ++c) {
            Client &k = cl[static_cast<size_t>(c)];
            k.id = static_cast<uint64_t>(c);
            k.records = &traces[static_cast<size_t>(c)];
            k.fd = connectTo(sock, *daemon);
            if (k.fd.get() < 0) {
                rd.error = "cannot connect to the daemon at " + sock;
                return rd;
            }
        }
    }
    rd.setupS = nowSec() - s0;

    const int encode_id = tr ? tr->intern("traffic.encode", true) : 0;
    const int send_id = tr ? tr->intern("serve.send", true) : 0;
    const int wait_id = tr ? tr->intern("serve.wait", true) : 0;
    Scope round(tr, "serve.round");
    const int64_t t0 = nowNs();
    for (auto &k : cl) {
        std::string hello;
        traffic::putVarint(hello, k.id);
        if (!sendAll(k.fd.get(), frameMsg(kMsgHello, hello))) {
            rd.error = "HELLO send failed";
            return rd;
        }
    }

    auto sendFrame = [&](Client &k) {
        if (tr)
            tr->begin(send_id);
        const bool ok = sendAll(k.fd.get(), k.frame);
        if (tr)
            tr->end();
        return ok;
    };
    auto sendNext = [&](Client &k) {
        ++k.seq;
        std::string payload;
        traffic::putVarint(payload, k.seq);
        if (k.next < k.records->size()) {
            const size_t n =
                std::min(kChunkRecords, k.records->size() - k.next);
            traffic::putVarint(payload, n);
            const size_t before = payload.size();
            const int64_t e0 = nowNs();
            if (tr)
                tr->begin(encode_id);
            traffic::encodeChunkPayload(k.records->data() + k.next, n,
                                        payload);
            if (tr)
                tr->end();
            rd.encodeNs += nowNs() - e0;
            rd.encodedBytes += payload.size() - before;
            k.next += n;
            k.frameRecords = n;
            k.frame = frameMsg(kMsgSubmit, payload);
            ++k.submits;
        } else {
            k.fin = true;
            k.frameRecords = 0;
            k.frame = frameMsg(kMsgFin, payload);
        }
        k.waiting = true;
        k.attempts = 0;
        k.sentNs = k.heardNs = nowNs();
        return sendFrame(k);
    };

    const int64_t deadline =
        t0 + static_cast<int64_t>(kRoundTimeoutS * 1e9);
    std::vector<pollfd> fds(cl.size());
    for (;;) {
        bool all_results = true;
        for (auto &k : cl) {
            if (!k.waiting && !k.finAcked && !sendNext(k)) {
                rd.error = format("client %llu: send failed",
                                  static_cast<unsigned long long>(k.id));
                return rd;
            }
            all_results = all_results && k.haveResult;
        }
        if (all_results)
            break;
        if (nowNs() > deadline) {
            rd.error = "round timed out";
            return rd;
        }
        for (size_t i = 0; i < cl.size(); ++i)
            fds[i] = pollfd{cl[i].haveResult ? -1 : cl[i].fd.get(),
                            POLLIN, 0};
        if (tr)
            tr->begin(wait_id);
        const int pr = ::poll(fds.data(), fds.size(), 20);
        if (tr)
            tr->end();
        if (pr < 0 && errno != EINTR) {
            rd.error = std::string("poll: ") + std::strerror(errno);
            return rd;
        }
        for (size_t i = 0; i < cl.size(); ++i) {
            Client &k = cl[i];
            if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            char buf[1 << 16];
            const ssize_t n = ::read(k.fd.get(), buf, sizeof(buf));
            if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN)) {
                rd.error = format("client %llu: server closed the "
                                  "connection",
                                  static_cast<unsigned long long>(k.id));
                return rd;
            }
            if (n < 0)
                continue;
            k.in.append(buf, static_cast<size_t>(n));
            uint8_t type = 0;
            std::string payload;
            int got = 0;
            while ((got = popFrame(k.in, type, payload)) == 1) {
                const int64_t now = nowNs();
                if (type == kMsgAck) {
                    uint64_t seq = 0;
                    if (traffic::getVarint(
                            reinterpret_cast<const uint8_t *>(
                                payload.data()),
                            payload.size(), seq) == 0) {
                        rd.error = "malformed ACK";
                        return rd;
                    }
                    if (!k.waiting || seq != k.seq)
                        continue; // stale duplicate ack
                    k.waiting = false;
                    if (k.fin) {
                        k.finAcked = true;
                        k.finAckNs = now;
                    } else {
                        rd.ackMs.push_back(
                            static_cast<double>(now - k.sentNs) * 1e-6);
                        k.ackNs.push_back(now);
                        k.ackedRecords += k.frameRecords;
                    }
                } else if (type == kMsgBusy) {
                    ++k.busy;
                    k.heardNs = now;
                    k.attempts = 0;
                } else if (type == kMsgResult) {
                    k.result = payload;
                    k.haveResult = true;
                    k.resultNs = now;
                } else if (type == kMsgError) {
                    rd.error = "server error: " + payload;
                    return rd;
                } else {
                    rd.error = format("unexpected frame type %u", type);
                    return rd;
                }
            }
            if (got < 0) {
                rd.error = "malformed frame from the server";
                return rd;
            }
        }
        // Retransmit only after a window of total silence: a BUSY
        // keepalive means the ack is deferred, not lost.
        for (auto &k : cl) {
            if (!k.waiting ||
                nowNs() - k.heardNs < int64_t{kAckTimeoutMs} * 1000000)
                continue;
            if (++k.attempts > kMaxRetries) {
                rd.error = "no ack from a silent server";
                return rd;
            }
            ++k.retransmits;
            k.heardNs = nowNs();
            if (!sendFrame(k)) {
                rd.error = "retransmit failed";
                return rd;
            }
        }
    }
    int64_t last = t0;
    for (const auto &k : cl) {
        last = std::max(last, k.resultNs);
        rd.resultWaitMs = std::max(
            rd.resultWaitMs,
            static_cast<double>(k.resultNs - k.finAckNs) * 1e-6);
        rd.results.push_back(k.result);
        rd.chunks += k.submits;
        rd.records += k.ackedRecords;
        rd.retransmits += k.retransmits;
        rd.busy += k.busy;
    }
    rd.wallS = static_cast<double>(last - t0) * 1e-9;
    size_t cuts = cl.front().ackNs.size();
    for (const auto &k : cl)
        cuts = std::min(cuts, k.ackNs.size());
    int64_t prev = t0;
    for (size_t i = 0; i < cuts; ++i) {
        int64_t cut = prev;
        for (const auto &k : cl)
            cut = std::max(cut, k.ackNs[i]);
        rd.steps.push_back(static_cast<double>(cut - prev) * 1e-9);
        prev = cut;
    }
    rd.steps.push_back(static_cast<double>(last - prev) * 1e-9);
    if (!daemon->wait(10.0)) {
        rd.error = format("daemon exited with status %d",
                          daemon->status());
        return rd;
    }
    rd.daemonRssMb = daemon->peakRssMb();
    rd.daemonCpuS = daemon->cpuSeconds();
    rd.ok = true;
    return rd;
}

/** A TraceSource decoding pre-encoded PLTR chunk payloads on demand,
 *  as the daemon does with SUBMIT frames. */
class ChunkSource final : public traffic::TraceSource
{
  public:
    explicit ChunkSource(
        const std::vector<std::pair<std::string, size_t>> &chunks)
        : chunks_(chunks)
    {
    }

    bool next(TraceRecord &out) override
    {
        while (pos_ == buf_.size()) {
            if (chunk_ == chunks_.size())
                return false;
            buf_.clear();
            pos_ = 0;
            const auto &[bytes, n] = chunks_[chunk_++];
            Cycle lc = 0;
            error = traffic::decodeChunkPayload(
                reinterpret_cast<const uint8_t *>(bytes.data()),
                bytes.size(), n, kNodes, lc, buf_);
            if (!error.empty())
                return false;
        }
        out = buf_[pos_++];
        return true;
    }

    std::string error;

  private:
    const std::vector<std::pair<std::string, size_t>> &chunks_;
    std::vector<TraceRecord> buf_;
    size_t pos_ = 0;
    size_t chunk_ = 0;
};

std::vector<std::pair<std::string, size_t>>
encodeChunks(const std::vector<TraceRecord> &recs)
{
    std::vector<std::pair<std::string, size_t>> out;
    for (size_t i = 0; i < recs.size(); i += kChunkRecords) {
        const size_t n = std::min(kChunkRecords, recs.size() - i);
        std::string payload;
        traffic::encodeChunkPayload(recs.data() + i, n, payload);
        out.emplace_back(std::move(payload), n);
    }
    return out;
}

int
clientCount()
{
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    return std::max(1, std::min(kClients, hw));
}

/** Count a round's failures: every chunk of a failed round, and every
 *  chunk of a client whose RESULT differs from the offline replay. */
void
checkRound(const Round &rd, const std::string &expected, bool corrupt,
           uint64_t chunks_per_round, int clients, Result &res)
{
    res.attempted += chunks_per_round;
    if (!rd.ok) {
        res.fail(chunks_per_round, rd.error);
        return;
    }
    for (size_t c = 0; c < rd.results.size(); ++c) {
        std::string got = rd.results[c];
        if (corrupt && c == 0 && !got.empty())
            got[0] = static_cast<char>(got[0] ^ 1);
        if (got != expected)
            res.fail(chunks_per_round / static_cast<uint64_t>(clients),
                     format("client %zu: RESULT differs from the offline "
                            "replay of the merged trace",
                            c));
    }
}

double
tailPercentile(std::vector<double> v, double &pct, size_t &beyond)
{
    std::sort(v.begin(), v.end());
    for (const double p : {99.9, 99.0, 90.0, 50.0}) {
        const size_t idx = static_cast<size_t>(
            p / 100.0 * static_cast<double>(v.size()));
        if (idx < v.size() && v.size() - idx - 1 >= 10) {
            pct = p;
            beyond = v.size() - idx - 1;
            return v[idx];
        }
    }
    pct = 100.0;
    beyond = 0;
    return v.empty() ? 0.0 : v.back();
}

/** An offline replay of the merged trace and, when traced, its
 *  host-time split. */
struct Replay {
    sim::ReplayStats stats;
    std::string report;
    double wallS = 0.0;
    core::PhastlaneCounters pl;
    int64_t stepNs = 0;
    uint64_t steps = 0;
    int64_t injectNs = 0;
    uint64_t injects = 0;
    int64_t decodeNs = 0;
    uint64_t decoded = 0;
    std::string error;
};

/**
 * Replay @p merged on a fresh network. Untraced it reads the records
 * from memory; traced it decodes the PLTR chunks on demand behind a
 * TimedTraceSource and steps a TimedNetwork, inside a sim.replay span.
 */
Replay
replayOffline(const std::vector<TraceRecord> &merged,
              const std::vector<std::pair<std::string, size_t>> &chunks,
              uint64_t seed, Tracer *tr)
{
    Replay out;
    const auto net = makeNetwork(seed);
    const double t0 = nowSec();
    if (!tr) {
        traffic::VectorTraceSource src(merged);
        out.stats = sim::replayTraceStream(*net, src);
    } else {
        Scope replay(tr, "sim.replay");
        ChunkSource chunk_src(chunks);
        TimedTraceSource src(chunk_src, *tr);
        TimedNetwork timed(*net, *tr);
        out.stats = sim::replayTraceStream(timed, src);
        out.error = chunk_src.error;
        out.stepNs = timed.stepNs;
        out.steps = timed.steps;
        out.injectNs = timed.injectNs;
        out.injects = timed.injects;
        out.decodeNs = src.ns;
        out.decoded = src.records;
    }
    out.wallS = nowSec() - t0;
    out.report = sim::formatReplayReport(out.stats, *net);
    out.pl = dynamic_cast<const core::PhastlaneNetwork &>(*net)
                 .phastlaneCounters();
    return out;
}

/** Check the offline replay's report against the committed digest for
 *  the seed; when it differs, every chunk counted so far fails (each
 *  RESULT matched that report). */
void
checkReport(const Options &opt, const Replay &off, Result &res)
{
    const DigestMap got{{"merged_report", digestOf(off.report)}};
    emitDigests(opt, got);
    if (off.stats.hitCycleLimit)
        res.fail(res.attempted - res.failed,
                 "the offline replay hit its cycle limit");
    else if (countMismatches(opt, got, nullptr, res))
        res.fail(res.attempted - res.failed,
                 "the merged trace's replay report differs from the "
                 "committed expectation");
}

/** Untraced rounds served back to back, checked against the offline
 *  replay, and what they measured. */
struct Served {
    std::vector<double> setup;
    std::vector<double> wall;
    std::vector<double> rps;
    std::vector<double> acks;
    std::vector<double> rss;
    std::vector<double> cpu;
    std::vector<double> resultWait;
    /** Per round step (Round::steps), the fastest over the rounds. */
    std::vector<double> bestSteps;
    uint64_t records = 0; ///< per round
    uint64_t busy = 0;
    uint64_t retransmits = 0;
    uint64_t chunks = 0;
    size_t rounds = 0;
};

/** Serve rounds for @p seconds (at least one; stop at the first failed
 *  round) and check every client's RESULT against @p off. */
Served
serveRounds(const Options &opt, int clients, const Replay &off,
            uint64_t chunks_per_round, Result &res)
{
    std::vector<Round> rounds;
    const double start = nowSec();
    do {
        rounds.push_back(runRound(opt, clients, nullptr));
    } while (rounds.back().ok && nowSec() - start < opt.seconds);

    Served sv;
    sv.rounds = rounds.size();
    for (const Round &rd : rounds) {
        checkRound(rd, off.report, opt.corruptResult, chunks_per_round,
                   clients, res);
        if (!rd.ok)
            continue;
        sv.setup.push_back(rd.setupS);
        sv.wall.push_back(rd.wallS);
        sv.rps.push_back(static_cast<double>(rd.records) / rd.wallS);
        sv.acks.insert(sv.acks.end(), rd.ackMs.begin(), rd.ackMs.end());
        sv.rss.push_back(rd.daemonRssMb);
        sv.cpu.push_back(rd.daemonCpuS);
        sv.resultWait.push_back(rd.resultWaitMs);
        if (!keepFastest(sv.bestSteps, rd.steps))
            res.fail(0, "rounds acknowledged different chunk counts");
        sv.records = rd.records;
        sv.busy += rd.busy;
        sv.retransmits += rd.retransmits;
        sv.chunks += rd.chunks;
    }
    return sv;
}

/** SUBMIT->ACK latency: its median and the highest percentile with at
 *  least ten samples beyond it, named in a note. */
void
addAckLatency(Result &res, const Served &sv, const char *prefix)
{
    double pct = 0.0;
    size_t beyond = 0;
    const double tail = tailPercentile(sv.acks, pct, beyond);
    res.add(std::string(prefix) + "ack_p50_ms", median(sv.acks), "ms");
    res.add(std::string(prefix) + "ack_tail_ms", tail, "ms");
    res.note(format("SUBMIT->ACK over %zu chunks: p50 %.4f ms, tail = "
                    "p%g = %.4f ms (%zu samples beyond it)",
                    sv.acks.size(), median(sv.acks), pct, tail, beyond));
}

Result
runTraced(const Options &opt, int clients,
          const std::vector<TraceRecord> &merged, uint64_t chunks_per_round)
{
    Result res;
    const auto chunks = encodeChunks(merged);

    // Untraced: the reference report, the rounds' wall, SUBMIT->ACK
    // latency and the daemon-side figures.
    const Replay off = replayOffline(merged, chunks, opt.seed, nullptr);
    const Served sv = serveRounds(opt, clients, off, chunks_per_round, res);

    Tracer tr(opt.workload);
    tr.begin(tr.intern("bench.served_round"));
    const Round traced = runRound(opt, clients, &tr);
    const Replay off_t = replayOffline(merged, chunks, opt.seed, &tr);
    tr.end();

    checkRound(traced, off.report, false, chunks_per_round, clients, res);
    checkReport(opt, off, res);
    res.attempted += chunks.size();
    if (!off_t.error.empty() || off_t.report != off.report)
        res.fail(chunks.size(), "decoded, traced offline replay differs "
                                "from the plain one " + off_t.error);

    const auto d = [](auto v) { return static_cast<double>(v); };
    LayerTotals core;
    core.stepNs = off_t.stepNs;
    core.nodeCycles = off_t.steps * kNodes;
    core.injectNs = off_t.injectNs;
    core.injects = off_t.injects;
    core.add(off_t.pl);
    addCoreMetrics(res, core);
    res.add("traffic.encode_ns_per_record",
            ratio(d(traced.encodeNs), d(traced.records)), "ns/record");
    res.add("traffic.decode_ns_per_record",
            ratio(d(off_t.decodeNs), d(off_t.decoded)), "ns/record");
    res.add("traffic.bytes_per_record",
            ratio(d(traced.encodedBytes), d(traced.records)), "B/record");
    res.add("sim.replay_self_ns_per_cycle",
            ratio(d(tr.agg("sim.replay").selfNs), d(off_t.steps)),
            "ns/cycle");
    addAckLatency(res, sv, "serve.");
    res.add("serve.overhead_s", median(sv.wall) - off.wallS, "s");
    res.add("serve.daemon_cpu_s", median(sv.cpu), "s");
    res.add("serve.result_wait_ms", median(sv.resultWait), "ms");
    res.add("serve.busy_frames", ratio(d(sv.busy), d(sv.rounds)), "count");
    res.add("serve.retransmit_ratio",
            ratio(d(sv.retransmits), d(sv.chunks)), "ratio");

    res.note(format("%zu untraced rounds, round wall median %.3f s; traced "
                    "round %.3f s; offline replay %.3f s plain, %.3f s "
                    "decoded and traced",
                    sv.rounds, median(sv.wall), traced.wallS, off.wallS,
                    off_t.wallS));
    finishTrace(tr, opt, {"core", "traffic", "sim", "serve"},
                traced.wallS + off_t.wallS, median(sv.wall) + off.wallS,
                res);
    return res;
}

} // namespace

Result
runServedRound(const Options &opt)
{
    Result res;
    if (opt.daemon.empty()) {
        res.attempted = 1;
        res.fail(1, "served_round needs --daemon <netsim_serve>");
        return res;
    }
    const int clients = clientCount();
    std::vector<std::vector<TraceRecord>> traces;
    for (int c = 0; c < clients; ++c)
        traces.push_back(generateTrace(opt.seed, c, clients));
    const std::vector<TraceRecord> merged = mergeTraces(traces);
    const uint64_t chunks_per_round =
        static_cast<uint64_t>(clients) *
        ((kRecordsPerClient + kChunkRecords - 1) / kChunkRecords);
    if (opt.trace)
        return runTraced(opt, clients, merged, chunks_per_round);

    // The offline comparator, outside the timed region.
    const Replay off = replayOffline(merged, {}, opt.seed, nullptr);
    const Served sv = serveRounds(opt, clients, off, chunks_per_round, res);
    checkReport(opt, off, res);

    // Every round does identical work, so each step of a round (up to
    // the cut where every client has its k-th chunk acknowledged) is
    // timed on its own and its fastest round counts. Interference from
    // other tenants of a shared host only ever slows a step down and
    // comes in bursts; the sum of per-step minima tracks the program's
    // own speed far more steadily than any whole-round statistic.
    double best_s = 0.0;
    for (const double step : sv.bestSteps)
        best_s += step;
    res.add("setup_s", median(sv.setup), "s");
    res.add("node_cycles_per_s",
            best_s > 0 ? static_cast<double>(off.stats.completionCycle) *
                             kNodes / best_s
                       : 0.0,
            "router-cycles/s");
    res.add("records_per_s",
            best_s > 0 ? static_cast<double>(sv.records) / best_s : 0.0,
            "records/s");
    res.add("peak_rss_mb", median(sv.rss), "MB");
    res.note(format("round wall: sum of per-step best %.4f s over %zu "
                    "steps; whole round median %.4f s (%.6g records/s), "
                    "range %.4f .. %.4f s",
                    best_s, sv.bestSteps.size(), median(sv.wall),
                    median(sv.rps),
                    sv.wall.empty() ? 0.0
                                    : *std::min_element(sv.wall.begin(),
                                                        sv.wall.end()),
                    sv.wall.empty() ? 0.0
                                    : *std::max_element(sv.wall.begin(),
                                                        sv.wall.end())));
    Result acks;
    addAckLatency(acks, sv, "");
    res.notes.insert(res.notes.end(), acks.notes.begin(), acks.notes.end());
    res.note(format("%zu rounds of %d clients x %llu records (%zu-record "
                    "chunks, stop-and-wait); daemon peak RSS is the median "
                    "over rounds",
                    sv.rounds, clients,
                    static_cast<unsigned long long>(kRecordsPerClient),
                    kChunkRecords));
    return res;
}

} // namespace perfbench

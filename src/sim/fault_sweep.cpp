#include "sim/fault_sweep.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/network.hpp"
#include "sim/runner.hpp"

namespace phastlane::sim {

std::vector<std::string>
faultRateFields()
{
    std::vector<std::string> names;
#define PL_FAULT_NAME(name) names.push_back(#name);
    PL_FAULT_RATE_FIELDS(PL_FAULT_NAME)
#undef PL_FAULT_NAME
    return names;
}

bool
setFaultRate(core::PhastlaneParams::FaultInjection &fi,
             const std::string &name, double value)
{
#define PL_FAULT_SET(field)                                            \
    if (name == #field) {                                              \
        fi.field = value;                                              \
        return true;                                                   \
    }
    PL_FAULT_RATE_FIELDS(PL_FAULT_SET)
#undef PL_FAULT_SET
    return false;
}

bool
applyFaultFlags(const Config &args,
                core::PhastlaneParams::FaultInjection &faults)
{
    bool any = false;
    const auto rate = [&](const char *key, double &field) {
        if (!args.has(key))
            return;
        const double v = args.getDouble(key, 0.0);
        if (v < 0.0 || v > 1.0)
            fatal("--%s must be in [0, 1], got %g", key, v);
        field = v;
        any = true;
    };
    rate("fault-mis-turn", faults.misTurnRate);
    rate("fault-missed-receive", faults.missedReceiveRate);
    rate("fault-signal-loss", faults.dropSignalLossRate);
    rate("fault-corrupt", faults.dropperIdCorruptRate);
    rate("fault-router-fail", faults.routerFailRate);
    if (args.has("fault-seed")) {
        faults.faultSeed =
            static_cast<uint64_t>(args.getInt("fault-seed", 0));
        any = true;
    }
    return any;
}

std::vector<std::string>
faultFlagNames()
{
    return {"fault-mis-turn",    "fault-missed-receive",
            "fault-signal-loss", "fault-corrupt",
            "fault-router-fail", "fault-seed"};
}

std::vector<double>
defaultFaultGrid()
{
    // Integer-generated so the grid is exact: 0, then a coarse ramp
    // covering the regimes where retransmission still wins, struggles,
    // and finally loses messages outright.
    std::vector<double> rates{0.0};
    for (int m : {1, 2, 5, 10, 20, 35, 50})
        rates.push_back(m / 100.0);
    return rates;
}

namespace {

/**
 * One sweep point as a step-wise job: Bernoulli traffic over its own
 * network (and optional ReliableNic), entirely self-contained so
 * points can run on any thread. Seeds
 * derive from (cfg.seed, index); the cycle structure — generate,
 * pump, step, harvest for measureCycles, then pump, step, harvest
 * until quiescent or the drain budget runs out — matches the original
 * serial loop exactly.
 */
class FaultPointJob final : public Job
{
  public:
    FaultPointJob(const FaultSweepConfig &cfg, size_t index)
        : cfg_(cfg)
    {
        core::PhastlaneParams params = cfg.params;
        if (!setFaultRate(params.faults, cfg.sweepField,
                          cfg.rates[index]))
            fatal("fault sweep: unknown fault rate field '%s'",
                  cfg.sweepField.c_str());
        const uint64_t pointSeed = derivePointSeed(cfg.seed, index);
        params.faults.faultSeed = pointSeed;
        params.seed = pointSeed;

        net_ = std::make_unique<core::PhastlaneNetwork>(params);
        rnic_ = std::make_unique<core::ReliableNic>(*net_,
                                                    cfg.reliableOpts);
        traffic_.emplace(derivePointSeed(pointSeed, 0x7261666654ull));
        sourceQueues_.resize(static_cast<size_t>(net_->nodeCount()));
        pt_.faultRate = cfg.rates[index];
        if (cfg_.measureCycles == 0)
            measuring_ = false;
    }

    core::PhastlaneNetwork &network() override { return *net_; }

    bool done() override
    {
        if (measuring_)
            return false; // the transition runs in postStep()
        return drainedCycles_ >= cfg_.maxDrainCycles || quiescent();
    }

    void preStep() override
    {
        if (measuring_)
            generate();
        pump();
    }

    void postStep() override
    {
        if (cfg_.reliable)
            rnic_->afterNetStep();
        harvest();
        if (measuring_) {
            if (++cycle_ == cfg_.measureCycles)
                measuring_ = false;
        } else {
            ++drainedCycles_;
        }
    }

    FaultSweepPoint finishPoint()
    {
        pt_.drained = quiescent();
        pt_.cycles = cycle_ + drainedCycles_;
        pt_.drops = net_->phastlaneCounters().drops;
        pt_.retransmissions =
            net_->phastlaneCounters().retransmissions;
        pt_.events = net_->events();
        if (cfg_.reliable)
            pt_.e2e = rnic_->stats();
        return pt_;
    }

  private:
    void generate()
    {
        const int nodes = net_->nodeCount();
        for (NodeId n = 0; n < nodes; ++n) {
            // One bernoulli per node regardless of the mix, so
            // AdversarialMix::None keeps the historical draw
            // sequence bit-identical.
            const double rate = std::min(
                1.0, cfg_.injectionRate *
                         traffic::rateScale(cfg_.adversarial, n,
                                            nodes));
            if (!traffic_->bernoulli(rate))
                continue;
            Packet pkt;
            pkt.id = nextId_++;
            pkt.src = n;
            pkt.broadcast =
                traffic_->bernoulli(cfg_.broadcastFraction);
            if (!pkt.broadcast) {
                const NodeId pinned = traffic::mixDestination(
                    cfg_.adversarial, n, net_->mesh());
                pkt.dst = pinned != kInvalidNode
                              ? pinned
                              : static_cast<NodeId>(
                                    traffic_->uniformInt(0,
                                                         nodes - 1));
            } else {
                pkt.dst = kInvalidNode;
            }
            if (!pkt.broadcast && pkt.dst == n)
                pkt.dst = static_cast<NodeId>((n + 1) % nodes);
            pkt.createdAt = cycle_;
            sourceQueues_[static_cast<size_t>(n)].push_back(pkt);
            ++pt_.messagesOffered;
        }
    }

    void pump()
    {
        const int nodes = net_->nodeCount();
        for (NodeId n = 0; n < nodes; ++n) {
            auto &q = sourceQueues_[static_cast<size_t>(n)];
            while (!q.empty() && net_->nicHasSpace(n)) {
                const bool ok = cfg_.reliable
                                    ? rnic_->send(q.front())
                                    : net_->inject(q.front());
                if (!ok)
                    break;
                pt_.unitsExpected += static_cast<uint64_t>(
                    q.front().deliveryCount(nodes));
                q.pop_front();
            }
        }
    }

    void harvest()
    {
        const auto &ds =
            cfg_.reliable ? rnic_->deliveries() : net_->deliveries();
        pt_.unitsDelivered += ds.size();
    }

    bool quiescent() const
    {
        if (net_->inFlight() != 0 || net_->bufferedPackets() != 0 ||
            net_->nicQueuedPackets() != 0)
            return false;
        if (cfg_.reliable && !rnic_->idle())
            return false;
        for (const auto &q : sourceQueues_)
            if (!q.empty())
                return false;
        return true;
    }

    const FaultSweepConfig &cfg_;
    std::unique_ptr<core::PhastlaneNetwork> net_;
    std::unique_ptr<core::ReliableNic> rnic_;
    std::optional<Rng> traffic_;
    std::vector<std::deque<Packet>> sourceQueues_;
    FaultSweepPoint pt_;
    uint64_t nextId_ = 1;
    Cycle cycle_ = 0;
    Cycle drainedCycles_ = 0;
    bool measuring_ = true;
};

void
appendF(std::string &out, const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    out += buf;
}

} // namespace

std::vector<FaultSweepPoint>
runFaultSweep(const FaultSweepConfig &cfg)
{
    std::vector<FaultSweepPoint> points(cfg.rates.size());
    runJobs(
        points.size(), cfg.threads,
        [&](size_t i) { return std::make_unique<FaultPointJob>(cfg, i); },
        [&](size_t i, Job &job) {
            points[i] = static_cast<FaultPointJob &>(job).finishPoint();
            return true;
        },
        false);
    return points;
}

std::string
faultSweepToJson(const FaultSweepConfig &cfg,
                 const std::vector<FaultSweepPoint> &pts)
{
    // The header names every params field the points do not
    // override (each point sets only the swept rate and faultSeed),
    // so a sweep file says which network produced it. Names match
    // netsim_cli's --wavefront and --admission values.
    const core::PhastlaneParams &p = cfg.params;
    const char *wavefront =
        p.wavefront == core::WavefrontModel::BitplaneFcfs ? "bitplane"
        : p.wavefront == core::WavefrontModel::SubstepFcfs ? "fcfs"
                                                            : "global";
    const char *admission =
        p.admission == core::AdmissionPolicy::TokenBucket ? "token"
        : p.admission == core::AdmissionPolicy::AgeBoost  ? "age"
                                                          : "none";
    std::string out;
    out.reserve(pts.size() * 512 + 1024);
    appendF(out,
            "{\n\"sweep_field\": \"%s\",\n\"reliable\": %s,\n"
            "\"injection_rate\": %.6f,\n\"broadcast_fraction\": %.6f,\n"
            "\"seed\": %" PRIu64 ",\n",
            cfg.sweepField.c_str(), cfg.reliable ? "true" : "false",
            cfg.injectionRate, cfg.broadcastFraction, cfg.seed);
    appendF(out,
            "\"mesh\": \"%dx%d\",\n\"wavefront\": \"%s\",\n"
            "\"max_hops\": %d,\n\"buffer_entries\": %d,\n"
            "\"backoff\": {\"base\": %d, \"exponential\": %s, "
            "\"cap\": %d},\n"
            "\"admission\": {\"policy\": \"%s\", \"burst\": %d, "
            "\"period\": %d, \"age_threshold\": %d},\n\"points\": [\n",
            p.meshWidth, p.meshHeight, wavefront, p.maxHopsPerCycle,
            p.routerBufferEntries, p.backoffBase,
            p.exponentialBackoff ? "true" : "false", p.backoffCap,
            admission, p.admissionBurst, p.admissionPeriod,
            p.admissionAgeThreshold);
    for (size_t i = 0; i < pts.size(); ++i) {
        const FaultSweepPoint &p = pts[i];
        appendF(out,
                "{\"fault_rate\": %.6f, \"messages_offered\": %" PRIu64
                ", \"units_expected\": %" PRIu64
                ", \"units_delivered\": %" PRIu64
                ", \"cycles\": %" PRIu64 ", \"drained\": %s,\n"
                " \"drops\": %" PRIu64 ", \"retransmissions\": %" PRIu64
                ", \"lost_units\": %" PRIu64
                ", \"drop_signals_lost\": %" PRIu64
                ", \"duplicates_suppressed\": %" PRIu64 ",\n"
                " \"fault_mis_turns\": %" PRIu64
                ", \"fault_missed_receives\": %" PRIu64
                ", \"fault_corruptions\": %" PRIu64
                ", \"fault_dead_arrivals\": %" PRIu64 ",\n"
                " \"e2e\": {\"sends\": %" PRIu64
                ", \"retransmits\": %" PRIu64 ", \"timeouts\": %" PRIu64
                ", \"duplicates\": %" PRIu64 ", \"late\": %" PRIu64
                ", \"completed\": %" PRIu64 ", \"expired\": %" PRIu64
                ", \"lost_units\": %" PRIu64 "}}%s\n",
                p.faultRate, p.messagesOffered, p.unitsExpected,
                p.unitsDelivered, p.cycles,
                p.drained ? "true" : "false", p.drops,
                p.retransmissions, p.events.lostUnits,
                p.events.dropSignalsLost,
                p.events.duplicatesSuppressed, p.events.faultMisTurns,
                p.events.faultMissedReceives, p.events.faultCorruptions,
                p.events.faultDeadArrivals, p.e2e.sends,
                p.e2e.retransmits, p.e2e.timeouts, p.e2e.duplicates,
                p.e2e.late, p.e2e.completed, p.e2e.expired,
                p.e2e.lostUnits, i + 1 < pts.size() ? "," : "");
    }
    out += "]\n}\n";
    return out;
}

void
writeFaultSweepJson(const FaultSweepConfig &cfg,
                    const std::vector<FaultSweepPoint> &pts,
                    const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot write fault sweep to %s", path.c_str());
    const std::string text = faultSweepToJson(cfg, pts);
    const bool wrote =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    if (std::fclose(f) != 0 || !wrote)
        fatal("write error on fault sweep file %s (disk full?)",
              path.c_str());
}

} // namespace phastlane::sim

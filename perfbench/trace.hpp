/**
 * @file
 * Host-time tracing for the benchmark: an in-memory span recorder and
 * forwarding decorators that time calls into the simulator's layers
 * through its public interfaces (net/network.hpp's Network and
 * traffic::TraceSource), so nothing under src/ is instrumented.
 *
 * Span names are "<layer>.<operation>"; the layer is the text before
 * the first dot (core, electrical, traffic, sim, serve, or bench for
 * the workload's root span). A span's self time is its duration minus
 * the durations of its direct children, and a layer's self time is the
 * sum over its spans. Cold spans (cells, rate points, rounds) are kept
 * one by one and written out at exit; hot spans (one per step(),
 * inject() or next() call) are only aggregated, since a campaign makes
 * millions of them.
 */

#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/network.hpp"
#include "net/network.hpp"
#include "traffic/trace.hpp"

namespace perfbench {

/** Monotonic host time in nanoseconds. */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline double
nowSec()
{
    return static_cast<double>(nowNs()) * 1e-9;
}

/**
 * Span recorder for one workload run. Not thread-safe: the benchmark
 * drives every traced layer from one thread.
 */
class Tracer
{
  public:
    explicit Tracer(std::string workload) : workload_(std::move(workload))
    {
    }

    /** Totals of every span with one name. */
    struct Agg {
        std::string name;
        bool hot = false;
        uint64_t count = 0;
        int64_t totalNs = 0;
        int64_t selfNs = 0;
    };

    /** Id of span name @p name (created on first use). Hot names are
     *  aggregated only. */
    int intern(const std::string &name, bool hot = false);

    void begin(int id)
    {
        Open o;
        o.id = id;
        o.start = nowNs();
        if (!aggs_[static_cast<size_t>(id)].hot) {
            o.record = static_cast<int32_t>(spans_.size());
            spans_.push_back(Span{id, o.start, 0, parentRecord()});
        }
        stack_.push_back(o);
    }

    /** Close the innermost open span; returns its duration in ns. */
    int64_t end()
    {
        const Open o = stack_.back();
        stack_.pop_back();
        const int64_t t = nowNs();
        const int64_t d = t - o.start;
        Agg &a = aggs_[static_cast<size_t>(o.id)];
        ++a.count;
        a.totalNs += d;
        a.selfNs += d - o.childNs;
        if (!stack_.empty())
            stack_.back().childNs += d;
        if (o.record >= 0)
            spans_[static_cast<size_t>(o.record)].end = t;
        return d;
    }

    const Agg &agg(const std::string &name) const;

    /** Self time (s) summed over every span of @p layer. */
    double layerSelfSeconds(const std::string &layer) const;

    /** Share of the root spans' time that named layer spans account
     *  for: 1 - (root self time / root total time). */
    double coverage() const;

    /** Write spans and aggregates as JSON; false on I/O error. */
    bool writeJson(const std::string &path) const;

  private:
    struct Open {
        int id = 0;
        int64_t start = 0;
        int64_t childNs = 0;
        int32_t record = -1;
    };
    struct Span {
        int id;
        int64_t start;
        int64_t end;
        int32_t parent; ///< index into spans_, -1 for a root
    };

    int32_t parentRecord() const
    {
        for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
            if (it->record >= 0)
                return it->record;
        }
        return -1;
    }

    std::string workload_;
    std::vector<Agg> aggs_;
    std::vector<Open> stack_;
    std::vector<Span> spans_;
};

/** RAII cold span; a null tracer makes it a no-op. */
class Scope
{
  public:
    Scope(Tracer *t, const std::string &name) : t_(t)
    {
        if (t_)
            t_->begin(t_->intern(name));
    }
    ~Scope()
    {
        if (t_)
            t_->end();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *t_;
};

/**
 * Forwarding Network that times step() and inject() as hot spans of
 * the wrapped network's layer ("core" for a PhastlaneNetwork,
 * "electrical" otherwise). Every other call forwards untimed.
 */
class TimedNetwork final : public phastlane::Network
{
  public:
    TimedNetwork(phastlane::Network &inner, Tracer &tracer);

    int nodeCount() const override { return inner_.nodeCount(); }
    const phastlane::MeshTopology &mesh() const override
    {
        return inner_.mesh();
    }
    phastlane::Cycle now() const override { return inner_.now(); }
    bool nicHasSpace(phastlane::NodeId n) const override
    {
        return inner_.nicHasSpace(n);
    }
    bool inject(const phastlane::Packet &pkt) override
    {
        tracer_.begin(injectId_);
        const bool ok = inner_.inject(pkt);
        injectNs += tracer_.end();
        ++injects;
        return ok;
    }
    void step() override
    {
        tracer_.begin(stepId_);
        inner_.step();
        stepNs += tracer_.end();
        ++steps;
    }
    const std::vector<phastlane::Delivery> &deliveries() const override
    {
        return inner_.deliveries();
    }
    uint64_t inFlight() const override { return inner_.inFlight(); }
    const phastlane::NetworkCounters &counters() const override
    {
        return inner_.counters();
    }

    bool optical() const { return optical_; }

    int64_t stepNs = 0;
    uint64_t steps = 0;
    int64_t injectNs = 0;
    uint64_t injects = 0;

  private:
    phastlane::Network &inner_;
    Tracer &tracer_;
    bool optical_;
    int stepId_;
    int injectId_;
};

/** Forwarding TraceSource timing next() as the "traffic.decode" hot
 *  span (the wrapped source decodes PLTR chunks on demand). */
class TimedTraceSource final : public phastlane::traffic::TraceSource
{
  public:
    TimedTraceSource(phastlane::traffic::TraceSource &inner,
                     Tracer &tracer)
        : inner_(inner), tracer_(tracer),
          id_(tracer.intern("traffic.decode", true))
    {
    }

    bool next(phastlane::traffic::TraceRecord &out) override
    {
        tracer_.begin(id_);
        const bool ok = inner_.next(out);
        ns += tracer_.end();
        if (ok)
            ++records;
        return ok;
    }

    int64_t ns = 0;
    uint64_t records = 0;

  private:
    phastlane::traffic::TraceSource &inner_;
    Tracer &tracer_;
    int id_;
};

/** Host time and counts of the core (or electrical) layer over a pass. */
struct LayerTotals {
    int64_t stepNs = 0;
    uint64_t nodeCycles = 0;
    int64_t injectNs = 0;
    uint64_t injects = 0;
    uint64_t launches = 0;
    uint64_t drops = 0;
    uint64_t blocked = 0;

    /** Add @p net's timed step() and inject() calls. */
    void add(const TimedNetwork &net);
    /** Add an optical network's launch, drop and buffering counts. */
    void add(const phastlane::core::PhastlaneCounters &pl);
    void add(const LayerTotals &other);
};

/** Add core.step_ns_per_node_cycle, core.inject_ns, core.ns_per_launch,
 *  core.launches, core.drops, core.blocked_buffered and
 *  core.drop_ratio. */
void addCoreMetrics(Result &res, const LayerTotals &core);

/**
 * Add <layer>.self_s for each of @p layers, trace.overhead_ratio
 * (@p traced_s / @p untraced_s) and trace.coverage, then write the
 * spans to <workdir>/trace-<workload>-seed<N>.json.
 */
void finishTrace(const Tracer &tr, const Options &opt,
                 std::initializer_list<const char *> layers,
                 double traced_s, double untraced_s, Result &res);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP

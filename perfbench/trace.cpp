#include "trace.hpp"

#include <cstdio>

namespace perfbench {

int
Tracer::intern(const std::string &name, bool hot)
{
    for (size_t i = 0; i < aggs_.size(); ++i) {
        if (aggs_[i].name == name)
            return static_cast<int>(i);
    }
    Agg a;
    a.name = name;
    a.hot = hot;
    aggs_.push_back(a);
    return static_cast<int>(aggs_.size() - 1);
}

const Tracer::Agg &
Tracer::agg(const std::string &name) const
{
    static const Agg kEmpty;
    for (const auto &a : aggs_) {
        if (a.name == name)
            return a;
    }
    return kEmpty;
}

double
Tracer::layerSelfSeconds(const std::string &layer) const
{
    int64_t ns = 0;
    for (const auto &a : aggs_) {
        if (a.name.compare(0, layer.size() + 1, layer + ".") == 0)
            ns += a.selfNs;
    }
    return static_cast<double>(ns) * 1e-9;
}

double
Tracer::coverage() const
{
    int64_t total = 0;
    int64_t self = 0;
    for (const auto &s : spans_) {
        if (s.parent >= 0)
            continue;
        total += s.end - s.start;
    }
    for (const auto &a : aggs_) {
        if (a.name.compare(0, 6, "bench.") == 0)
            self += a.selfNs;
    }
    return total > 0 ? 1.0 - static_cast<double>(self) /
                                 static_cast<double>(total)
                     : 0.0;
}

bool
Tracer::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
    std::fprintf(f, "{\"workload\": \"%s\",\n \"spans\": [", workload_.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s\n  {\"name\": \"%s\", \"start_ns\": %lld, "
                     "\"end_ns\": %lld, \"parent\": %d, \"workload\": "
                     "\"%s\"}",
                     i ? "," : "",
                     aggs_[static_cast<size_t>(s.id)].name.c_str(),
                     static_cast<long long>(s.start - t0),
                     static_cast<long long>(s.end - t0), s.parent,
                     workload_.c_str());
    }
    std::fprintf(f, "],\n \"aggregates\": [");
    for (size_t i = 0; i < aggs_.size(); ++i) {
        const Agg &a = aggs_[i];
        std::fprintf(f,
                     "%s\n  {\"name\": \"%s\", \"hot\": %s, \"count\": "
                     "%llu, \"total_ns\": %lld, \"self_ns\": %lld}",
                     i ? "," : "", a.name.c_str(),
                     a.hot ? "true" : "false",
                     static_cast<unsigned long long>(a.count),
                     static_cast<long long>(a.totalNs),
                     static_cast<long long>(a.selfNs));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

TimedNetwork::TimedNetwork(phastlane::Network &inner, Tracer &tracer)
    : inner_(inner), tracer_(tracer),
      optical_(dynamic_cast<phastlane::core::PhastlaneNetwork *>(
                   &inner) != nullptr)
{
    const std::string layer = optical_ ? "core" : "electrical";
    stepId_ = tracer.intern(layer + ".step", true);
    injectId_ = tracer.intern(layer + ".inject", true);
}

void
LayerTotals::add(const TimedNetwork &net)
{
    stepNs += net.stepNs;
    nodeCycles += net.steps * static_cast<uint64_t>(net.nodeCount());
    injectNs += net.injectNs;
    injects += net.injects;
}

void
LayerTotals::add(const phastlane::core::PhastlaneCounters &pl)
{
    launches += pl.launches;
    drops += pl.drops;
    blocked += pl.blockedBuffered;
}

void
LayerTotals::add(const LayerTotals &other)
{
    stepNs += other.stepNs;
    nodeCycles += other.nodeCycles;
    injectNs += other.injectNs;
    injects += other.injects;
    launches += other.launches;
    drops += other.drops;
    blocked += other.blocked;
}

void
addCoreMetrics(Result &res, const LayerTotals &core)
{
    const auto d = [](auto v) { return static_cast<double>(v); };
    res.add("core.step_ns_per_node_cycle",
            ratio(d(core.stepNs), d(core.nodeCycles)), "ns/node-cycle");
    res.add("core.inject_ns", ratio(d(core.injectNs), d(core.injects)),
            "ns");
    res.add("core.ns_per_launch", ratio(d(core.stepNs), d(core.launches)),
            "ns");
    res.add("core.launches", d(core.launches), "count");
    res.add("core.drops", d(core.drops), "count");
    res.add("core.blocked_buffered", d(core.blocked), "count");
    res.add("core.drop_ratio", ratio(d(core.drops), d(core.launches)),
            "ratio");
}

void
finishTrace(const Tracer &tr, const Options &opt,
            std::initializer_list<const char *> layers, double traced_s,
            double untraced_s, Result &res)
{
    for (const char *layer : layers)
        res.add(std::string(layer) + ".self_s", tr.layerSelfSeconds(layer),
                "s");
    res.add("trace.overhead_ratio", ratio(traced_s, untraced_s), "ratio");
    res.add("trace.coverage", tr.coverage(), "ratio");
    const std::string path =
        opt.workdir + "/trace-" + opt.workload +
        format("-seed%llu.json", static_cast<unsigned long long>(opt.seed));
    if (tr.writeJson(path))
        res.note("spans written to " + path);
    else
        res.fail(0, "cannot write " + path);
}

} // namespace perfbench

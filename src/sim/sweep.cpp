#include "sim/sweep.hpp"

#include <algorithm>
#include <memory>

#include "common/log.hpp"
#include "sim/runner.hpp"

namespace phastlane::sim {

std::vector<double>
defaultRateGrid()
{
    // Generated from integer counters so the endpoints are exact:
    // repeated floating-point accumulation (r += 0.01) drifts enough
    // that the grid's length and endpoints depend on rounding.
    std::vector<double> rates;
    for (int m = 1; m <= 9; ++m) // 0.01 .. 0.09 step 0.01
        rates.push_back(m / 100.0);
    for (int m = 100; m <= 500; m += 25) // 0.10 .. 0.50 step 0.025
        rates.push_back(m / 1000.0);
    return rates;
}

bool
applyAdmissionFlags(const Config &args, core::PhastlaneParams &params)
{
    bool any = false;
    if (args.has("admission")) {
        const std::string name = args.getString("admission", "none");
        if (name == "none") {
            params.admission = core::AdmissionPolicy::None;
        } else if (name == "token") {
            params.admission = core::AdmissionPolicy::TokenBucket;
        } else if (name == "age") {
            params.admission = core::AdmissionPolicy::AgeBoost;
        } else {
            fatal("--admission must be none|token|age, got '%s'",
                  name.c_str());
        }
        any = true;
    }
    const auto intFlag = [&](const char *key, int &field, int lo) {
        if (!args.has(key))
            return;
        const int v = static_cast<int>(args.getInt(key, 0));
        if (v < lo)
            fatal("--%s must be >= %d, got %d", key, lo, v);
        field = v;
        any = true;
    };
    intFlag("admission-burst", params.admissionBurst, 1);
    intFlag("admission-period", params.admissionPeriod, 1);
    intFlag("admission-age", params.admissionAgeThreshold, 0);
    return any;
}

std::vector<std::string>
admissionFlagNames()
{
    return {"admission", "admission-burst", "admission-period",
            "admission-age"};
}

bool
applyTrafficFlags(const Config &args, traffic::PatternOptions &opts,
                  traffic::AdversarialConfig &adv)
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
    rate("hotspot-fraction", opts.hotspotFraction);
    if (args.has("hotspot-node")) {
        opts.hotspotNode =
            static_cast<NodeId>(args.getInt("hotspot-node", 0));
        any = true;
    }
    if (args.has("mix")) {
        adv.mix = traffic::parseMix(args.getString("mix", "none"));
        any = true;
    }
    rate("elephant-fraction", adv.elephantFraction);
    const auto boost = [&](const char *key, double &field) {
        if (!args.has(key))
            return;
        const double v = args.getDouble(key, 1.0);
        if (v < 1.0)
            fatal("--%s must be >= 1, got %g", key, v);
        field = v;
        any = true;
    };
    boost("elephant-boost", adv.elephantBoost);
    boost("tenant-boost", adv.tenantBoost);
    if (args.has("tenant-count")) {
        const int v = static_cast<int>(args.getInt("tenant-count", 2));
        if (v < 1)
            fatal("--tenant-count must be >= 1, got %d", v);
        adv.tenantCount = v;
        any = true;
    }
    return any;
}

std::vector<std::string>
trafficFlagNames()
{
    return {"hotspot-fraction", "hotspot-node",  "mix",
            "elephant-fraction", "elephant-boost", "tenant-count",
            "tenant-boost"};
}

std::vector<SweepPoint>
runSweep(const NetConfig &config, const SweepConfig &sweep)
{
    using PointJob = DriverJob<traffic::SyntheticDriver>;
    // Each point records into its own registry so parallel points
    // never share observer state; mergedMetrics() merges them in rate
    // order.
    std::vector<SweepPoint> points(sweep.rates.size());
    const size_t kept = runJobs(
        points.size(), sweep.threads,
        [&](size_t i) {
            traffic::SyntheticConfig cfg;
            cfg.pattern = sweep.pattern;
            cfg.patternOpts = sweep.patternOpts;
            cfg.adversarial = sweep.adversarial;
            cfg.injectionRate = sweep.rates[i];
            cfg.warmupCycles = sweep.warmupCycles;
            cfg.measureCycles = sweep.measureCycles;
            cfg.seed = sweep.seed;
            auto job =
                std::make_unique<PointJob>(config.make(sweep.seed), cfg);
            if (sweep.collectMetrics)
                job->recordMetrics(points[i].metrics);
            return job;
        },
        [&](size_t i, Job &job) {
            points[i].injectionRate = sweep.rates[i];
            points[i].result =
                static_cast<PointJob &>(job).driver().finish();
            return !(sweep.stopAtSaturation &&
                     points[i].result.saturated);
        },
        sweep.stopAtSaturation);
    // Points after the first saturated one are dropped.
    points.resize(kept);
    return points;
}

double
saturationThroughput(const std::vector<SweepPoint> &points)
{
    double best = 0.0;
    for (const auto &pt : points)
        best = std::max(best, pt.result.acceptedRate);
    return best;
}

obs::MetricsRegistry
mergedMetrics(const std::vector<SweepPoint> &points)
{
    obs::MetricsRegistry total;
    for (const auto &pt : points)
        total.merge(pt.metrics);
    return total;
}

} // namespace phastlane::sim

#include "sim/experiment.hpp"

#include <memory>

#include "common/log.hpp"
#include "core/network.hpp"
#include "sim/runner.hpp"

namespace phastlane::sim {

std::vector<BenchmarkRun>
runExperiment(const ExperimentSpec &spec)
{
    if (spec.configs.empty() || spec.benchmarks.empty())
        fatal("experiment needs at least one config and benchmark");

    // Pre-generate every benchmark's streams once (shared read-only
    // across the grid), then run the independent (benchmark, config)
    // cells. Cell i owns runs[i], so the result vector comes back in
    // the serial order: grouped by benchmark, configs in
    // specification order.
    const size_t nb = spec.benchmarks.size();
    const size_t nc = spec.configs.size();
    std::vector<traffic::SplashProfile> profiles(spec.benchmarks);
    std::vector<std::vector<std::vector<traffic::Txn>>> streams(nb);
    for (size_t b = 0; b < nb; ++b) {
        if (spec.txnsPerNode > 0)
            profiles[b].txnsPerNode = spec.txnsPerNode;
        streams[b] =
            traffic::generateStreams(profiles[b], 64, spec.seed);
    }
    std::vector<NetConfig> configs;
    for (const auto &name : spec.configs)
        configs.push_back(makeConfig(name));

    using CellJob = DriverJob<traffic::CoherenceDriver>;
    std::vector<BenchmarkRun> runs(nb * nc);
    runJobs(
        runs.size(), spec.threads,
        [&](size_t i) {
            const size_t b = i / nc;
            return std::make_unique<CellJob>(
                configs[i % nc].make(spec.seed), streams[b],
                profiles[b].mshrLimit);
        },
        [&](size_t i, Job &job) {
            BenchmarkRun &run = runs[i];
            run.benchmark = profiles[i / nc].name;
            run.config = spec.configs[i % nc];
            run.result = static_cast<CellJob &>(job).driver().finish();
            run.power = configs[i % nc].power(
                job.network(), run.result.completionCycles
                                   ? run.result.completionCycles
                                   : 1);
            if (const auto *pl = dynamic_cast<core::PhastlaneNetwork *>(
                    &job.network()))
                run.drops = pl->phastlaneCounters().drops;
            return true;
        },
        false);
    return runs;
}

const BenchmarkRun &
findRun(const std::vector<BenchmarkRun> &runs,
        const std::string &benchmark, const std::string &config)
{
    for (const auto &r : runs) {
        if (r.benchmark == benchmark && r.config == config)
            return r;
    }
    fatal("no run for benchmark '%s' and config '%s'",
          benchmark.c_str(), config.c_str());
}

double
speedupOf(const std::vector<BenchmarkRun> &runs,
          const std::string &benchmark, const std::string &config,
          const std::string &baseline)
{
    const BenchmarkRun &base = findRun(runs, benchmark, baseline);
    const BenchmarkRun &run = findRun(runs, benchmark, config);
    PL_ASSERT(run.result.completionCycles > 0, "zero-length run");
    return static_cast<double>(base.result.completionCycles) /
           static_cast<double>(run.result.completionCycles);
}

TextTable
speedupTable(const ExperimentSpec &spec,
             const std::vector<BenchmarkRun> &runs)
{
    std::vector<std::string> headers = {"benchmark"};
    for (const auto &c : spec.configs)
        headers.push_back(c);
    TextTable t(std::move(headers));
    for (const auto &b : spec.benchmarks) {
        std::vector<std::string> row = {b.name};
        for (const auto &c : spec.configs) {
            row.push_back(TextTable::num(
                speedupOf(runs, b.name, c, spec.baseline), 2));
        }
        t.addRow(std::move(row));
    }
    return t;
}

TextTable
powerTable(const ExperimentSpec &spec,
           const std::vector<BenchmarkRun> &runs)
{
    std::vector<std::string> headers = {"benchmark"};
    for (const auto &c : spec.configs)
        headers.push_back(c + " [W]");
    TextTable t(std::move(headers));
    for (const auto &b : spec.benchmarks) {
        std::vector<std::string> row = {b.name};
        for (const auto &c : spec.configs) {
            row.push_back(TextTable::num(
                findRun(runs, b.name, c).power.totalW, 1));
        }
        t.addRow(std::move(row));
    }
    return t;
}

} // namespace phastlane::sim

/**
 * @file
 * Shared helpers for the paper-artifact benchmark binaries.
 *
 * Every bench accepts:
 *   --csv <path>   also write the table as CSV
 *   --quick        reduced workload sizes (CI-friendly)
 *   --seed <n>     workload seed (default 12345)
 *   --threads <n>  simulation threads (default: PL_THREADS env, else
 *                  hardware concurrency; results are identical at any
 *                  thread count)
 */

#ifndef PHASTLANE_BENCH_BENCH_UTIL_HPP
#define PHASTLANE_BENCH_BENCH_UTIL_HPP

#include <cstdio>
#include <string>

#include "common/config.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"

namespace phastlane::bench {

/** Parsed common options. */
struct BenchOptions {
    std::string csvPath;
    bool quick = false;
    uint64_t seed = 12345;
    int threads = 0; ///< resolved: >= 1
    Config raw;

    static BenchOptions
    parse(int argc, char **argv)
    {
        BenchOptions o;
        o.raw = Config::fromArgs(argc, argv);
        o.csvPath = o.raw.getString("csv");
        o.quick = o.raw.getBool("quick", false);
        o.seed = static_cast<uint64_t>(o.raw.getInt("seed", 12345));
        o.threads = resolveThreadCount(
            static_cast<int>(o.raw.getInt("threads", 0)));
        return o;
    }
};

/** Print a titled table and mirror it to CSV when requested. */
inline void
emit(const BenchOptions &opts, const std::string &title,
     const TextTable &table, const std::string &csv_suffix = "")
{
    std::printf("\n=== %s ===\n", title.c_str());
    table.print();
    if (!opts.csvPath.empty()) {
        std::string path = opts.csvPath;
        if (!csv_suffix.empty()) {
            const auto dot = path.rfind('.');
            if (dot == std::string::npos)
                path += "_" + csv_suffix;
            else
                path.insert(dot, "_" + csv_suffix);
        }
        table.writeCsv(path);
        std::printf("[csv written to %s]\n", path.c_str());
    }
}

} // namespace phastlane::bench

#endif // PHASTLANE_BENCH_BENCH_UTIL_HPP

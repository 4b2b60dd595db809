/**
 * @file
 * Shared pieces of the benchmark program: run options, the result every
 * workload returns, digests of simulated results and the committed
 * expectations they are checked against.
 */

#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** The seed whose digests are committed in expected_digests.txt. */
inline constexpr uint64_t kDefaultSeed = 1;

/** Digests of one workload's simulated results for one seed, keyed by
 *  operation (grid cell, rate point). */
using DigestMap = std::map<std::string, std::string>;

/** Committed expectations: workload -> seed -> key -> digest. */
class Expectations
{
  public:
    /** Parse "<workload> <seed> <key> <digest>" lines ('#' starts a
     *  comment). Returns "" or an error description. */
    std::string load(const std::string &path);

    /** The expected digests for (workload, seed); null when none are
     *  committed for that seed. */
    const DigestMap *find(const std::string &workload,
                          uint64_t seed) const;

    /** Replace one digest (self-test: feed a wrong expectation). */
    void set(const std::string &workload, uint64_t seed,
             const std::string &key, const std::string &digest)
    {
        table_[workload][seed][key] = digest;
    }

  private:
    std::map<std::string, std::map<uint64_t, DigestMap>> table_;
};

struct Options {
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for scratch files: the daemon's socket directory and
     *  the span dump of a traced run. */
    std::string workdir = ".";
    /** The netsim_serve binary (served_round only). */
    std::string daemon;
    const Expectations *expect = nullptr;
    /** When set, every digest the run computes is appended here in
     *  expected_digests.txt format. */
    std::string emitDigests;
    /** Self-test only: flip a bit of the first client's RESULT before
     *  it is checked (served_round). */
    bool corruptResult = false;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Result {
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the JSON result. */
    std::vector<std::string> notes;

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back(Metric{name, value, unit});
    }
    void note(const std::string &line) { notes.push_back(line); }
    /** Count @p n failed operations and mark the run incorrect. */
    void fail(uint64_t n, const std::string &why);
};

/** 64-bit FNV-1a of @p text as 16 hex digits. */
std::string digestOf(const std::string &text);

/** printf into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** @p num / @p den, or 0 when @p den is not positive. */
inline double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/**
 * Fold @p sample into @p best element by element, keeping the smaller
 * (the first sample is copied). Returns false when the sizes differ:
 * two repetitions of identical work took different numbers of steps.
 */
bool keepFastest(std::vector<double> &best,
                 const std::vector<double> &sample);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Add metric @p name as the median of the repetitions in @p v, with a
 *  note giving their range. */
void addMedian(Result &res, const std::string &name,
               const std::vector<double> &v, const std::string &unit);

/**
 * Run @p fn in a forked child and return what it produced, or "" when
 * the child did not exit cleanly -- a simulator panic() aborts the
 * process, and this turns it into one failed operation instead.
 */
std::string runIsolated(const std::function<std::string()> &fn);

/** Peak resident set of this process so far, in MB. */
double selfPeakRssMb();

/**
 * Compare @p got against the committed digests for (workload, seed)
 * and, when given, against @p reference (an independent execution path
 * of the same inputs). Returns the number of keys that disagree with
 * either; a key missing from @p got counts as a disagreement.
 */
uint64_t countMismatches(const Options &opt, const DigestMap &got,
                         const DigestMap *reference, Result &res);

/** Append @p got to opt.emitDigests when set. */
void emitDigests(const Options &opt, const DigestMap &got);

Result runSplashCampaign(const Options &opt);
Result runMesh32Uniform(const Options &opt);
Result runServedRound(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP

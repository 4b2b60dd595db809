/**
 * @file
 * The benchmark program: runs one named workload for a given seed and
 * duration, checks its simulated results, and prints its metrics, the
 * last line being one JSON object. perfbench/run.py builds this binary
 * and calls it; see perfbench/README.md.
 *
 *   perfbench --workload splash_campaign --seed 1 --seconds 30 \
 *       --trace 0 --expect perfbench/expected_digests.txt \
 *       --workdir .bench_build --daemon .bench_build/netsim_serve
 *   perfbench --self-test --expect ... --workdir ... --daemon ...
 */

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"

using namespace perfbench;

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1\n"
                 "                 [--expect FILE] [--workdir DIR] "
                 "[--daemon NETSIM_SERVE]\n"
                 "                 [--emit-digests FILE]\n"
                 "       perfbench --self-test [--expect FILE] "
                 "[--workdir DIR] [--daemon NETSIM_SERVE]\n"
                 "workloads: splash_campaign mesh32_uniform "
                 "served_round\n");
}

bool
parseUnsigned(const char *s, uint64_t &out)
{
    if (!s || !*s || std::strspn(s, "0123456789") != std::strlen(s) ||
        std::strlen(s) > 19)
        return false;
    out = std::strtoull(s, nullptr, 10);
    return true;
}

Result
runWorkload(const Options &opt)
{
    if (opt.workload == "splash_campaign")
        return runSplashCampaign(opt);
    if (opt.workload == "mesh32_uniform")
        return runMesh32Uniform(opt);
    return runServedRound(opt);
}

void
printResult(Result &res)
{
    for (const auto &n : res.notes)
        std::printf("# %s\n", n.c_str());
    for (auto &m : res.metrics) {
        if (!std::isfinite(m.value)) {
            res.correct = false;
            std::printf("# FAILED: %s is not finite\n", m.name.c_str());
            m.value = 0.0;
        }
        std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                res.correct ? "true" : "false",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed));
    for (size_t i = 0; i < res.metrics.size(); ++i) {
        const Metric &m = res.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

/**
 * The benchmark's own checks: the decorators are transparent and the
 * gang matches the per-instance path (every traced run checks both),
 * and a wrong expected digest or a corrupted RESULT shows up as failed
 * operations rather than a pass.
 */
int
selfTest(Options base, const Expectations &expect)
{
    base.seed = kDefaultSeed;
    base.seconds = 0.0;
    int failures = 0;
    auto report = [&](const char *what, bool ok, const Result &res) {
        std::printf("%s: %s (attempted %llu, failed %llu)\n",
                    ok ? "PASS" : "FAIL", what,
                    static_cast<unsigned long long>(res.attempted),
                    static_cast<unsigned long long>(res.failed));
        if (!ok) {
            ++failures;
            for (const auto &n : res.notes)
                std::printf("  # %s\n", n.c_str());
        }
        std::fflush(stdout);
    };

    for (const char *w :
         {"splash_campaign", "mesh32_uniform", "served_round"}) {
        Options opt = base;
        opt.workload = w;
        opt.trace = true;
        const Result res = runWorkload(opt);
        report(format("%s traced run matches the untraced and reference "
                      "paths",
                      w)
                   .c_str(),
               res.correct && res.failed == 0, res);
    }

    for (const char *w : {"splash_campaign", "mesh32_uniform"}) {
        Expectations wrong = expect;
        const DigestMap *d = expect.find(w, kDefaultSeed);
        if (!d || d->empty()) {
            std::printf("FAIL: no committed digests for %s seed %llu\n", w,
                        static_cast<unsigned long long>(kDefaultSeed));
            ++failures;
            continue;
        }
        wrong.set(w, kDefaultSeed, d->begin()->first, "0123456789abcdef");
        Options opt = base;
        opt.workload = w;
        opt.expect = &wrong;
        const Result res = runWorkload(opt);
        report(format("%s with a wrong expected digest fails", w).c_str(),
               !res.correct && res.failed > 0, res);
    }

    Options opt = base;
    opt.workload = "served_round";
    opt.corruptResult = true;
    const Result res = runWorkload(opt);
    report("served_round with a corrupted RESULT fails",
           !res.correct && res.failed > 0, res);

    std::printf("self-test: %s\n", failures ? "FAILED" : "passed");
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::signal(SIGPIPE, SIG_IGN);
    Options opt;
    std::string expect_path;
    bool self_test = false;
    bool have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
        uint64_t n = 0;
        if (a == "--self-test") {
            self_test = true;
            continue;
        }
        if (!v) {
            usage();
            return 2;
        }
        ++i;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed" && parseUnsigned(v, n)) {
            opt.seed = n;
        } else if (a == "--seconds" && parseUnsigned(v, n) && n > 0 &&
                   n <= 3600) {
            opt.seconds = static_cast<double>(n);
            have_seconds = true;
        } else if (a == "--trace" && (std::strcmp(v, "0") == 0 ||
                                      std::strcmp(v, "1") == 0)) {
            opt.trace = v[0] == '1';
        } else if (a == "--expect") {
            expect_path = v;
        } else if (a == "--workdir") {
            opt.workdir = v;
        } else if (a == "--daemon") {
            opt.daemon = v;
        } else if (a == "--emit-digests") {
            opt.emitDigests = v;
        } else {
            std::fprintf(stderr, "bad argument %s %s\n", a.c_str(), v);
            usage();
            return 2;
        }
    }

    Expectations expect;
    if (!expect_path.empty()) {
        const std::string err = expect.load(expect_path);
        if (!err.empty()) {
            std::fprintf(stderr, "%s\n", err.c_str());
            return 2;
        }
        opt.expect = &expect;
    }
    if (self_test)
        return selfTest(opt, expect);

    if (opt.workload != "splash_campaign" &&
        opt.workload != "mesh32_uniform" &&
        opt.workload != "served_round") {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     opt.workload.c_str());
        usage();
        return 2;
    }
    if (!have_seconds) {
        usage();
        return 2;
    }
    Result res = runWorkload(opt);
    printResult(res);
    return 0;
}

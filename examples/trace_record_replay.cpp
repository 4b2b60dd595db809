/**
 * @file
 * Trace-driven methodology demo (paper Section 4): record a
 * closed-loop coherence workload once, write it to a trace file, then
 * replay the identical trace open-loop on every network configuration
 * and compare completion times -- "we changed Booksim to input the
 * same trace files used for our optical simulator".
 *
 *   ./examples/trace_record_replay [--benchmark FFT] [--txns 60]
 *       [--trace FILE]
 *
 * Without --trace the trace goes to a fresh mkstemp() file under
 * $TMPDIR (default /tmp), removed on exit.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include <unistd.h>

#include "common/config.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "sim/configs.hpp"
#include "traffic/coherence.hpp"
#include "traffic/splash.hpp"
#include "traffic/trace.hpp"

using namespace phastlane;
using namespace phastlane::traffic;

int
main(int argc, char **argv)
{
    const Config args = Config::fromArgs(argc, argv);
    SplashProfile prof =
        splashProfile(args.getString("benchmark", "FFT"));
    prof.txnsPerNode = static_cast<int>(args.getInt("txns", 60));
    std::string trace_path = args.getString("trace", "");
    const bool own_trace = trace_path.empty();
    if (own_trace) {
        const char *dir = std::getenv("TMPDIR");
        std::string tmpl = std::string(dir && *dir ? dir : "/tmp") +
                           "/phastlane_trace_XXXXXX";
        const int fd = mkstemp(tmpl.data());
        if (fd < 0)
            fatal("cannot create a temporary trace file from %s",
                  tmpl.c_str());
        close(fd);
        trace_path = tmpl;
    }
    const uint64_t seed =
        static_cast<uint64_t>(args.getInt("seed", 7));

    // 1. Record: run the closed-loop workload once on the reference
    //    network, capturing every accepted injection.
    const auto streams = generateStreams(prof, 64, seed);
    auto ref = sim::makeConfig("Electrical3").make(seed);
    RecordingNetwork recorder(*ref);
    CoherenceDriver driver(recorder, streams, prof.mshrLimit);
    const CoherenceResult rec_result = driver.run();
    if (rec_result.timedOut)
        fatal("recording run timed out");
    writeTrace(trace_path, recorder.recorded());
    std::printf("recorded %zu messages from %s into %s "
                "(%llu cycles on the reference network)\n\n",
                recorder.recorded().size(), prof.name.c_str(),
                trace_path.c_str(),
                static_cast<unsigned long long>(
                    rec_result.completionCycles));

    // 2. Replay: every configuration consumes the identical file.
    const auto trace = readTrace(trace_path);
    TextTable t({"config", "completion [cyc]", "speedup",
                 "avg latency [cyc]"});
    double base = 0.0;
    for (const char *name :
         {"Electrical3", "Electrical2", "Optical4", "Optical5",
          "Optical8"}) {
        auto net = sim::makeConfig(name).make(seed);
        const TraceReplayResult r = replayTrace(*net, trace);
        if (base == 0.0)
            base = static_cast<double>(r.completionCycle);
        t.addRow({name,
                  TextTable::num(static_cast<int64_t>(
                      r.completionCycle)),
                  TextTable::num(
                      base / static_cast<double>(r.completionCycle),
                      2) + "x",
                  TextTable::num(r.avgLatency, 1)});
    }
    t.print();
    if (own_trace)
        std::remove(trace_path.c_str());
    return 0;
}

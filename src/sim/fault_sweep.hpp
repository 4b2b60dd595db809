/**
 * @file
 * Fault-rate sweep (DESIGN.md §10.4): run the Phastlane network at a
 * fixed offered load while one injected-fault probability sweeps a
 * grid, and record how delivery, retransmission, duplicate
 * suppression, and loss respond — with or without the end-to-end
 * reliability layer (core::ReliableNic).
 *
 * Points are independent simulations run by sim::runJobs (one after
 * another or in parallel); every point derives its fault and traffic
 * seeds from the campaign seed and the point index, so the sweep is
 * bit-identical at any thread count.
 */

#ifndef PHASTLANE_SIM_FAULT_SWEEP_HPP
#define PHASTLANE_SIM_FAULT_SWEEP_HPP

#include <string>
#include <vector>

#include "common/config.hpp"
#include "core/events.hpp"
#include "core/params.hpp"
#include "core/reliability.hpp"
#include "traffic/adversarial.hpp"

namespace phastlane::sim {

/** Configuration of one fault-rate sweep campaign. */
struct FaultSweepConfig {
    /** Base network parameters; the swept rate and the per-point
     *  faultSeed are overwritten for each point. */
    core::PhastlaneParams params;

    /** FaultInjection rate field to sweep (see faultRateFields()). */
    std::string sweepField = "dropSignalLossRate";

    /** Fault probabilities to test. */
    std::vector<double> rates;

    double injectionRate = 0.05;   ///< packets/node/cycle offered
    double broadcastFraction = 0.1;

    /** Adversarial source mix for the generated traffic; None keeps
     *  the historical draw sequence bit-identical. Admission control
     *  rides along in params (params.admission et al.). */
    traffic::AdversarialConfig adversarial;
    Cycle measureCycles = 2000;    ///< cycles of traffic generation
    Cycle maxDrainCycles = 20000;  ///< post-generation drain budget
    uint64_t seed = 42;

    /** Simulation threads: 0 = auto (PL_THREADS env, else hardware
     *  concurrency), 1 = serial. Bit-identical at any count. */
    int threads = 0;

    /** Wrap the network in a core::ReliableNic. The default schedule
     *  (128-cycle base timeout, 6 retries, shift cap 5) bounds a
     *  message's worst-case residence to ~12k cycles, inside the
     *  default drain budget. */
    bool reliable = true;
    core::ReliableNicOptions reliableOpts{128, 6, 5};
};

/** Results of one sweep point. */
struct FaultSweepPoint {
    double faultRate = 0.0;
    uint64_t messagesOffered = 0;
    uint64_t unitsExpected = 0;  ///< delivery units addressed
    uint64_t unitsDelivered = 0; ///< exactly-once deliveries observed
    uint64_t cycles = 0;         ///< total simulated cycles
    bool drained = false;        ///< reached quiescence in budget

    /** Raw network-side accounting. */
    uint64_t drops = 0;
    uint64_t retransmissions = 0;
    core::OpticalEvents events;

    /** End-to-end reliability stats (zero when reliable == false). */
    core::ReliableNicStats e2e;
};

/** The sweepable FaultInjection rate-field names. */
std::vector<std::string> faultRateFields();

/** Set FaultInjection field @p name to @p value; false if unknown. */
bool setFaultRate(core::PhastlaneParams::FaultInjection &fi,
                  const std::string &name, double value);

/**
 * Apply the shared CLI fault flags (--fault-mis-turn,
 * --fault-missed-receive, --fault-signal-loss, --fault-corrupt,
 * --fault-router-fail, --fault-seed) onto @p faults. Returns true
 * when any flag was present; fatal() when a rate is outside [0, 1].
 */
bool applyFaultFlags(const Config &args,
                     core::PhastlaneParams::FaultInjection &faults);

/** The flag names applyFaultFlags() consumes (for requireKnown). */
std::vector<std::string> faultFlagNames();

/** Default fault-probability grid: 0 plus a log-ish ramp to 0.5. */
std::vector<double> defaultFaultGrid();

/** Run the sweep; one point per configured rate, in rate order. */
std::vector<FaultSweepPoint> runFaultSweep(const FaultSweepConfig &cfg);

/** Render the sweep as a JSON document. */
std::string faultSweepToJson(const FaultSweepConfig &cfg,
                             const std::vector<FaultSweepPoint> &pts);

/** Write faultSweepToJson() to @p path; fatal() on I/O error. */
void writeFaultSweepJson(const FaultSweepConfig &cfg,
                         const std::vector<FaultSweepPoint> &pts,
                         const std::string &path);

} // namespace phastlane::sim

#endif // PHASTLANE_SIM_FAULT_SWEEP_HPP

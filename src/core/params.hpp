/**
 * @file
 * Configuration of the Phastlane optical network (paper Table 1 plus
 * the knobs exercised in the evaluation and ablations).
 */

#ifndef PHASTLANE_CORE_PARAMS_HPP
#define PHASTLANE_CORE_PARAMS_HPP

#include <algorithm>
#include <cstdint>

namespace phastlane::core {

/**
 * Intra-cycle contention-resolution model for the optical wavefront
 * (DESIGN.md 3.1).
 */
enum class WavefrontModel : uint8_t {
    /** Port claims are final once granted; priority applies among
     *  packets reaching a router in the same sub-step. The scalar
     *  flat-array engine: the lockstep reference semantics. */
    SubstepFcfs,
    /** Idealized straight priority: a straight packet evicts a
     *  turning packet's claim regardless of arrival order, resolved
     *  by monotone fixed point (ablation). */
    GlobalPriority,
    /** SubstepFcfs semantics on the word-parallel bit-plane engine
     *  (DESIGN.md §11): bit-identical results, resolved via plane
     *  algebra instead of per-request sorting. Default. */
    BitplaneFcfs,
};

/**
 * Launch arbitration over a router's buffered packets (the paper's
 * future work mentions alternatives to the simple rotating scheme).
 */
enum class BufferArbitration : uint8_t {
    /** Rotating pointer over the five queues. Default (paper). */
    RotatingPriority,
    /** Globally oldest eligible packet first (extension). */
    OldestFirst,
};

/**
 * Source admission control at NIC launch and buffered re-launch
 * (DESIGN.md §14). Phastlane's fixed straight-over-turn priority
 * starves turning flows at saturation; these policies trade a little
 * peak throughput of the favoured flows for per-source fairness.
 */
enum class AdmissionPolicy : uint8_t {
    /** No throttling. Default (paper). */
    None,
    /** Per-source token bucket: a router's local queue may launch
     *  only while its bucket holds tokens (admissionBurst capacity,
     *  one token every admissionPeriod cycles). Buffered transit
     *  packets (N/E/S/W queues) are never throttled — the network
     *  must drain. */
    TokenBucket,
    /** Age-threshold boost: a packet buffered for at least
     *  admissionAgeThreshold cycles launches with its wavefront
     *  priority promoted to straight-equivalent, so starved turning
     *  packets stop losing every optical arbitration. */
    AgeBoost,
};

/** Arbitration among same-sub-step optical arrivals (footnote 3). */
enum class OpticalArbitration : uint8_t {
    /** Straight beats turns, ties by fixed port order. Default. */
    FixedPriority,
    /** Rotating priority over input ports (ablation; the paper found
     *  no performance advantage). */
    RoundRobin,
};

/**
 * Phastlane network parameters. Defaults follow Table 1 and the
 * baseline "Optical4" configuration of Section 5.
 */
struct PhastlaneParams {
    int meshWidth = 8;
    int meshHeight = 8;

    /** Hops traversable per cycle: 4 (pessimistic), 5 (average) or 8
     *  (optimistic scaling). */
    int maxHopsPerCycle = 4;

    /**
     * Entries in each router buffer queue (four input ports plus the
     * local node queue). 10 for Optical4, 32/64 for Optical4B32/B64;
     * <= 0 means infinite (Optical4IB).
     */
    int routerBufferEntries = 10;

    /** Entries in the network-interface controller queue (Table 1). */
    int nicQueueEntries = 50;

    /** Packets movable from the NIC into the router's local queue per
     *  cycle (sized to keep a broadcast's branch fan-out fed). */
    int nicTransfersPerCycle = 4;

    /** Payload WDM degree (Table 1: 64). */
    int wavelengths = 64;

    /**
     * Buffered-packet launches per queue per cycle. The rotating
     * arbiter picks up to four packets total (one per output port);
     * allowing several from one queue matters mainly for the local
     * queue when a broadcast's branches fan out to all four ports.
     */
    int launchesPerQueue = 4;

    /**
     * Extra cycles a dropped packet waits before becoming eligible
     * again, on top of the mandatory drop-signal round trip.
     */
    int backoffBase = 0;

    /** Exponential backoff on repeated drops of the same packet. */
    bool exponentialBackoff = false;

    /** Cap on the exponential backoff window (cycles). */
    int backoffCap = 64;

    WavefrontModel wavefront = WavefrontModel::BitplaneFcfs;
    OpticalArbitration opticalArbitration =
        OpticalArbitration::FixedPriority;
    BufferArbitration bufferArbitration =
        BufferArbitration::RotatingPriority;

    /** Admission policy consulted at NIC launch and buffered
     *  re-launch (DESIGN.md §14). */
    AdmissionPolicy admission = AdmissionPolicy::None;

    /** TokenBucket: bucket capacity (tokens; also the initial fill). */
    int admissionBurst = 4;

    /** TokenBucket: cycles per token refill. */
    int admissionPeriod = 2;

    /** AgeBoost: buffered cycles before a packet's wavefront priority
     *  is promoted to straight-equivalent. */
    int admissionAgeThreshold = 32;

    /**
     * Extension (paper future work, Section 5): DAMQ-style buffer
     * sharing. Each queue keeps a guaranteed half of its partition;
     * the other half of every partition forms a shared per-router
     * pool any queue may borrow from, absorbing single-port hotspots.
     * (Fully shared pools were tried first and congestion-collapse
     * under drop-retry storms; see bench/futurework_buffers.)
     */
    bool sharedBufferPool = false;

    /** Seed for backoff jitter. */
    uint64_t seed = 1;

    /**
     * Fault injection (DESIGN.md §10).
     *
     * The boolean knobs are deliberate semantic mutations used ONLY to
     * validate that the src/check/ verification subsystem actually
     * catches bugs (a checker that never fires is untested). The rate
     * knobs model stochastic device faults; every draw is a stateless
     * hash of (faultSeed, fault kind, branch, cycle, node) — see
     * faultRoll() — so runs are reproducible at any thread count, the
     * ReferenceNetwork mirrors each draw exactly, and rates of 0
     * consume no randomness at all (bit-identical to a fault-free
     * build; the backoff RNG stream is untouched).
     *
     * The field lists are X-macros so the differential repro emitter
     * (check/differential.cpp) and any other field-generic consumer
     * iterate every knob by construction: a field added here cannot be
     * silently dropped from emitted repros.
     *
     * Rate knob semantics:
     *  - misTurnRate: a pass resonator mis-tunes and diverts the
     *    packet into the router's electrical buffer (received as if
     *    blocked; dropped if the buffer is full).
     *  - missedReceiveRate: a receive/tap resonator fails to capture
     *    the packet copy; the delivery unit is lost (the protocol has
     *    no delivery ack, so nothing retransmits it).
     *  - dropSignalLossRate: the Packet-Dropped return signal is lost;
     *    the holder's "no signal means success" rule frees the buffer
     *    slot and the packet's undelivered units are lost.
     *  - dropperIdCorruptRate: the 6-bit dropper Node ID arrives
     *    corrupted, so a multicast source cannot clear the served
     *    Multicast bits and retransmits the full branch; receivers
     *    suppress the re-served taps as duplicates (dedupBelow).
     *  - routerFailRate: hard router failure, drawn once per node at
     *    construction; arrivals black-hole (units lost), and packets
     *    injected at a failed node are accepted and immediately
     *    accounted lost.
     */
#define PL_FAULT_BOOL_FIELDS(X) X(invertStraightPriority)
#define PL_FAULT_RATE_FIELDS(X)                                        \
    X(misTurnRate)                                                     \
    X(missedReceiveRate)                                               \
    X(dropSignalLossRate)                                              \
    X(dropperIdCorruptRate)                                            \
    X(routerFailRate)
#define PL_FAULT_SEED_FIELDS(X) X(faultSeed)
    struct FaultInjection {
#define PL_DECLARE_BOOL(name) bool name = false;
#define PL_DECLARE_RATE(name) double name = 0.0;
#define PL_DECLARE_SEED(name) uint64_t name = 0;
        PL_FAULT_BOOL_FIELDS(PL_DECLARE_BOOL)
        PL_FAULT_RATE_FIELDS(PL_DECLARE_RATE)
        PL_FAULT_SEED_FIELDS(PL_DECLARE_SEED)
#undef PL_DECLARE_BOOL
#undef PL_DECLARE_RATE
#undef PL_DECLARE_SEED

        /** True when any stochastic fault rate is positive. */
        bool anyRate() const
        {
#define PL_OR_RATE(name) || name > 0.0
            return false PL_FAULT_RATE_FIELDS(PL_OR_RATE);
#undef PL_OR_RATE
        }
    };
    FaultInjection faults;

    bool infiniteBuffers() const { return routerBufferEntries <= 0; }
    int nodeCount() const { return meshWidth * meshHeight; }
};

/** Fault classes drawn through faultRoll (DESIGN.md §10). */
enum class FaultKind : uint32_t {
    MisTurn = 1,
    MissedReceive = 2,
    DropSignalLoss = 3,
    DropperIdCorrupt = 4,
    RouterFail = 5,
};

/** SplitMix64 finalizer: full-avalanche 64-bit mix. */
inline uint64_t faultMix(uint64_t h)
{
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
    return h;
}

/**
 * Stateless fault draw: true with probability @p rate, as a pure
 * function of (faultSeed, kind, a, b, c). The operands identify the
 * event being rolled (typically branch id, cycle, node), so the same
 * event gets the same verdict in the optimized network, in the
 * ReferenceNetwork oracle, and at any thread count — no RNG state is
 * consumed (a rate of 0 short-circuits before hashing, leaving
 * fault-free runs bit-identical to builds without this feature).
 */
inline bool
faultRoll(const PhastlaneParams::FaultInjection &fi, double rate,
          FaultKind kind, uint64_t a, uint64_t b, uint64_t c)
{
    if (!(rate > 0.0)) {
        return false;
    }
    uint64_t h = fi.faultSeed + 0x9e3779b97f4a7c15ull;
    h = faultMix(h ^ (static_cast<uint64_t>(kind) *
                      0x9e3779b97f4a7c15ull));
    h = faultMix(h ^ (a * 0x9e3779b97f4a7c15ull));
    h = faultMix(h ^ (b * 0x9e3779b97f4a7c15ull));
    h = faultMix(h ^ (c * 0x9e3779b97f4a7c15ull));
    const double u =
        static_cast<double>(h >> 11) * 0x1.0p-53;
    return u < rate;
}

/**
 * Exponential-backoff jitter window after @p attempts completed
 * (dropped) launch attempts: min(2^attempts - 1, backoffCap), in
 * cycles. The single source of truth for both PhastlaneNetwork and
 * the ReferenceNetwork oracle, which must stay in exact lockstep
 * (including whether a jitter value is drawn at all: the RNG is
 * consulted only when the window is positive).
 *
 * The shift amount is clamped only to keep 2^attempts representable;
 * the effective cap is backoffCap itself. (An earlier version clamped
 * the exponent at 6 *before* applying the cap, so backoffCap > 63
 * silently never widened the window beyond 63 cycles.)
 */
inline int64_t
backoffWindow(const PhastlaneParams &params, int attempts)
{
    if (!params.exponentialBackoff || attempts <= 0 ||
        params.backoffCap <= 0) {
        return 0;
    }
    const int exp = attempts < 62 ? attempts : 62;
    return std::min<int64_t>((int64_t{1} << exp) - 1,
                             static_cast<int64_t>(params.backoffCap));
}

/**
 * Deterministic per-source token bucket (AdmissionPolicy::TokenBucket).
 * Integer accrual only — no floating point, no RNG — so the optimized
 * engines and the ReferenceNetwork oracle stay in exact lockstep: the
 * bucket is a pure function of its consume() call sequence. Like
 * backoffWindow(), this lives here as the single source of truth for
 * both sides of the differential oracle.
 *
 * The bucket starts full (burst tokens) with the first refill due one
 * period after the start cycle; lazy catch-up accrual keeps the state
 * O(1) regardless of idle gaps.
 */
struct AdmissionBucket {
    int32_t tokens = 0;
    uint64_t nextRefill = 0;

    void reset(int burst, int period, uint64_t now)
    {
        tokens = static_cast<int32_t>(burst);
        nextRefill = now + static_cast<uint64_t>(period);
    }

    /** Take one token at cycle @p now; false when empty (the launch
     *  must wait — the caller leaves the packet eligible so the next
     *  arbitration retries). */
    bool consume(int burst, int period, uint64_t now)
    {
        if (nextRefill <= now) {
            const uint64_t p = static_cast<uint64_t>(period);
            const uint64_t earned = (now - nextRefill) / p + 1;
            const uint64_t cap = static_cast<uint64_t>(burst);
            const uint64_t have = static_cast<uint64_t>(tokens) + earned;
            tokens = static_cast<int32_t>(have < cap ? have : cap);
            nextRefill += earned * p;
        }
        if (tokens <= 0)
            return false;
        --tokens;
        return true;
    }
};

} // namespace phastlane::core

#endif // PHASTLANE_CORE_PARAMS_HPP

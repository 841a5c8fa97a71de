/**
 * @file
 * Cycle-level model of the Viterbi search accelerator (UNFOLD,
 * Sec. III-A) and of the paper's extension replacing the hypothesis
 * storage with the small set-associative Max-Heap hash (Sec. III-B).
 *
 * The simulator attaches to the software Viterbi decoder as a
 * SearchObserver. It sees each state the decoder expands and replays
 * that state's arc run itself, in the WFST's CSR order: the decoder
 * relaxes exactly that run right after the hook, so the replay yields
 * the exact state/arc fetch streams and lattice writes (driving the
 * State/Arc/Word-Lattice cache models) without a per-arc callback. The
 * per-frame selector counters drive the hash-access and overflow cost
 * model. Per frame the pipeline throughput is limited by its busiest
 * stage:
 *
 *   state issue   : 1 token/cycle + DRAM for state-cache misses
 *   arc issue     : 1 arc/cycle + DRAM for arc-cache misses
 *   acoustic read : 1/cycle (on-chip likelihood buffer)
 *   likelihood eval: 1/cycle (4 FP adders, 2 comparators)
 *   hypothesis hash: baseline — 1 cycle direct-mapped, +2 per backup
 *                    chain access, DRAM line traffic per overflow access;
 *                    proposal — single cycle always (Max-Heap replace)
 *
 * DRAM behaviour: 32 in-flight requests (Table III) make misses
 * bandwidth- rather than latency-bound; each 64 B line occupies the
 * channel bandwidth/frequency bytes-per-cycle.
 *
 * AsrSystem::runUtterance runs the simulator beside the search rather
 * than inside it: a PipedSearchObserver (decoder/piped_observer.hh)
 * records the expanded-state stream and each frame's activity on the
 * decode thread, in batches of 8 frames with at most 3 in flight, and
 * a helper thread replays them into the simulator. The replay makes
 * the same calls in the same order from one thread, and the simulator
 * reads nothing else of the decode (the WFST is immutable), so every
 * cycle, cache statistic and joule is bit-identical to a simulator
 * attached to the decode directly. The search telemetry and the decode
 * watchdog stay on the decode thread.
 */

#ifndef DARKSIDE_ACCEL_VITERBI_VITERBI_ACCEL_HH
#define DARKSIDE_ACCEL_VITERBI_VITERBI_ACCEL_HH

#include <cstdint>

#include "decoder/viterbi_decoder.hh"
#include "sim/cache_model.hh"
#include "sim/energy_model.hh"
#include "wfst/wfst.hh"

namespace darkside {

/** Hypothesis-storage organisation being modelled. */
enum class HashOrganisation : std::uint8_t {
    /** UNFOLD baseline: big direct-mapped table + backup + overflow. */
    UnboundedBaseline,
    /** The proposal: small K-way set-associative Max-Heap table. */
    NBestSetAssociative,
};

/** Table III parameters (scaled variants used by the benches). */
struct ViterbiAccelConfig
{
    CacheConfig stateCache{"state-cache", 256 * 1024, 4, 64};
    CacheConfig arcCache{"arc-cache", 768 * 1024, 8, 64};
    CacheConfig latticeCache{"lattice-cache", 128 * 1024, 2, 64};
    std::size_t likelihoodBufferBytes = 64 * 1024;

    HashOrganisation hash = HashOrganisation::UnboundedBaseline;
    /** Entries of the primary hash region (baseline: 32K direct-mapped;
     *  proposal: N, e.g. 1024). */
    std::size_t hashEntries = 32 * 1024;
    /** Backup-buffer entries (baseline only; UNFOLD: 16K). */
    std::size_t backupEntries = 16 * 1024;
    /** Bytes per hypothesis record in the hash storage. */
    std::size_t hashEntryBytes = 16;

    /** Clock (Sec. IV: 2 ns -> 500 MHz). */
    double frequencyHz = 500e6;
    /** Extra cycles per backup-buffer (chained) access. */
    std::size_t backupPenaltyCycles = 2;
    /** Pipeline fill/drain overhead per frame. */
    std::size_t frameOverheadCycles = 12;
};

/** Aggregated simulation outcome. */
struct ViterbiSimResult
{
    std::uint64_t cycles = 0;
    double seconds = 0.0;
    EnergyAccount energy;
    CacheStats stateCache;
    CacheStats arcCache;
    CacheStats latticeCache;
    /** DRAM lines moved for cache misses. */
    std::uint64_t missLines = 0;
    /** DRAM lines moved for hypothesis overflow traffic. */
    std::uint64_t overflowLines = 0;
    std::uint64_t frames = 0;
};

/**
 * Viterbi accelerator simulator; feed it to ViterbiDecoder::decode().
 */
class ViterbiAcceleratorSim : public SearchObserver
{
  public:
    /**
     * @param config hardware parameters
     * @param fst decoding graph (for arc/state byte addresses)
     */
    ViterbiAcceleratorSim(const ViterbiAccelConfig &config,
                          const Wfst &fst);

    // SearchObserver interface.
    void onUtteranceStart(std::size_t frames) override;
    /** State fetch, then the fetch of its whole arc run and the
     *  lattice writes of the run's word arcs. */
    void onStateExpand(StateId state) override;
    void onFrameEnd(const FrameActivity &activity) override;

    /** Results accumulated since construction (or resetStats()). */
    ViterbiSimResult result() const;

    /**
     * Publish the accumulated counters to the global telemetry registry
     * (docs/METRICS.md "accel.viterbi.*"). Call once per simulator
     * instance, after the decode it observed; the cycle and DRAM-line
     * counts are pure functions of the observed access stream, so the
     * counters stay deterministic under parallel test-set runs.
     */
    void recordTelemetry() const;

    /** Clear accumulated counters (cache contents persist). */
    void resetStats();

    /** Total accelerator area, mm^2 (the Sec. III-B area comparison). */
    double area() const;

    const ViterbiAccelConfig &config() const { return config_; }

  private:
    double hashAccessEnergy() const;

    ViterbiAccelConfig config_;
    const Wfst &fst_;

    CacheModel stateCache_;
    CacheModel arcCache_;
    CacheModel latticeCache_;
    MemoryCharacteristics likelihoodMem_;
    MemoryCharacteristics hashMem_;
    /** Byte address of arc 0: arc records follow the state table in
     *  the WFST image. */
    std::uint64_t arcBase_;
    /** Likelihood evaluation energy per arc (add + compare). */
    double evalEnergy_;

    std::uint64_t cycles_ = 0;
    std::uint64_t frames_ = 0;
    std::uint64_t missLines_ = 0;
    std::uint64_t overflowLines_ = 0;
    EnergyAccount energy_;

    // Per-frame scratch.
    std::uint64_t frameStateAccesses_ = 0;
    std::uint64_t frameStateMisses_ = 0;
    std::uint64_t frameArcAccesses_ = 0;
    std::uint64_t frameArcMisses_ = 0;
    std::uint64_t frameLatticeWrites_ = 0;
    std::uint64_t frameLatticeMisses_ = 0;
};

} // namespace darkside

#endif // DARKSIDE_ACCEL_VITERBI_VITERBI_ACCEL_HH

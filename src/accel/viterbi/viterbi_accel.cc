#include "accel/viterbi/viterbi_accel.hh"

#include <algorithm>

#include "telemetry/metrics.hh"

namespace darkside {

namespace {

/** Hardware record sizes (UNFOLD packed layouts, Fig. 6). */
constexpr std::uint64_t kStateRecordBytes = 6;
constexpr std::uint64_t kArcRecordBytes = 10;
constexpr std::uint64_t kLatticeRecordBytes = 12;

} // namespace

ViterbiAcceleratorSim::ViterbiAcceleratorSim(
    const ViterbiAccelConfig &config, const Wfst &fst)
    : config_(config), fst_(fst), stateCache_(config.stateCache),
      arcCache_(config.arcCache), latticeCache_(config.latticeCache),
      likelihoodMem_(EnergyModel::sram(config.likelihoodBufferBytes)),
      hashMem_(EnergyModel::sram(
          (config.hashEntries +
           (config.hash == HashOrganisation::UnboundedBaseline
                ? config.backupEntries
                : 0)) *
          config.hashEntryBytes)),
      arcBase_(fst.stateCount() * kStateRecordBytes),
      evalEnergy_(2.0 * EnergyModel::fp32AddEnergy())
{
    ds_assert(config.frequencyHz > 0.0);
}

void
ViterbiAcceleratorSim::onUtteranceStart(std::size_t frames)
{
    // The acoustic likelihood buffer is refilled per utterance by the
    // DNN accelerator through the shared DRAM buffer. The WFST caches
    // are not flushed here, but runUtterance builds a fresh simulator
    // per utterance, so every utterance of a test set starts with cold
    // caches: that keeps each utterance's simulated time independent
    // of which utterances a worker thread decoded before it.
}

void
ViterbiAcceleratorSim::onStateExpand(StateId state)
{
    ++frameStateAccesses_;
    if (!stateCache_.access(static_cast<std::uint64_t>(state) *
                            kStateRecordBytes)) {
        ++frameStateMisses_;
    }
    energy_.addDynamic(stateCache_.accessEnergy());

    // The Arc Issuer fetches the state's arc run in CSR order, which is
    // the order the decoder relaxes it in right after this hook. Per
    // arc: arc fetch, acoustic likelihood read, likelihood evaluation
    // (add + compare), and a lattice write for word arcs; the energy is
    // added in exactly that order.
    const double arc_energy = arcCache_.accessEnergy();
    const double likelihood_energy = likelihoodMem_.accessEnergy;
    const double lattice_energy = latticeCache_.accessEnergy();
    const std::uint64_t lattice_frame =
        static_cast<std::uint64_t>(frames_) * 4096;
    const std::size_t begin = fst_.arcBegin(state);
    const std::size_t end = fst_.arcEnd(state);
    frameArcAccesses_ += end - begin;
    const Arc *const last = fst_.arcData(end);
    std::uint64_t arc_addr =
        arcBase_ + static_cast<std::uint64_t>(begin) * kArcRecordBytes;
    for (const Arc *arc = fst_.arcData(begin); arc != last;
         ++arc, arc_addr += kArcRecordBytes) {
        if (!arcCache_.access(arc_addr))
            ++frameArcMisses_;
        energy_.addDynamic(arc_energy);
        energy_.addDynamic(likelihood_energy);
        energy_.addDynamic(evalEnergy_);

        if (arc->olabel != kEpsilon) {
            ++frameLatticeWrites_;
            if (!latticeCache_.access((lattice_frame +
                                       frameLatticeWrites_) *
                                      kLatticeRecordBytes))
                ++frameLatticeMisses_;
            energy_.addDynamic(lattice_energy);
        }
    }
}

void
ViterbiAcceleratorSim::onFrameEnd(const FrameActivity &activity)
{
    ++frames_;
    const auto &sel = activity.selector;

    // --- Stage occupancies (cycles) -------------------------------
    const std::uint64_t state_stage = frameStateAccesses_;
    const std::uint64_t arc_stage = frameArcAccesses_;
    const std::uint64_t eval_stage = activity.generated;

    std::uint64_t hash_stage = sel.insertions;
    std::uint64_t overflow_accesses = 0;
    if (config_.hash == HashOrganisation::UnboundedBaseline) {
        hash_stage += sel.backupAccesses * config_.backupPenaltyCycles;
        overflow_accesses = sel.overflowAccesses;
    }
    // The proposal's Max-Heap replacement completes in a single cycle
    // (TimingModel), so insertions already cover it.

    // --- DRAM traffic ----------------------------------------------
    const std::uint64_t miss_lines =
        frameStateMisses_ + frameArcMisses_ + frameLatticeMisses_;
    // Each overflow access spills/fetches one hypothesis record; a 64 B
    // line holds several, but pointer-chased records rarely coalesce —
    // charge one line each way.
    const std::uint64_t overflow_lines = overflow_accesses * 2;
    missLines_ += miss_lines;
    overflowLines_ += overflow_lines;

    const double bytes_per_cycle =
        EnergyModel::dramBandwidth() / config_.frequencyHz;
    const auto mem_stage = static_cast<std::uint64_t>(
        static_cast<double>((miss_lines + overflow_lines) * 64) /
        bytes_per_cycle);
    // Overflow accesses additionally expose latency: the hypothesis
    // issuer blocks on the chained lookup. The 32 in-flight requests
    // (Table III) overlap most of the 50-cycle DRAM latency; ~1/32 is
    // exposed per access.
    const std::uint64_t latency_cycles =
        overflow_accesses * static_cast<std::uint64_t>(
            EnergyModel::dramLatency() * config_.frequencyHz / 32.0);

    const std::uint64_t frame_cycles =
        std::max({state_stage, arc_stage, eval_stage, hash_stage,
                  mem_stage}) +
        latency_cycles + config_.frameOverheadCycles;
    cycles_ += frame_cycles;

    // --- Energy ------------------------------------------------------
    energy_.addDynamic(static_cast<double>(sel.insertions) *
                       hashAccessEnergy());
    energy_.addDynamic(static_cast<double>(sel.backupAccesses) *
                       hashAccessEnergy());
    energy_.addDynamic(
        static_cast<double>((miss_lines + overflow_lines)) *
        EnergyModel::dramLineEnergy());

    const double leakage = stateCache_.leakagePower() +
        arcCache_.leakagePower() + latticeCache_.leakagePower() +
        likelihoodMem_.leakagePower + hashMem_.leakagePower +
        6.0 * EnergyModel::fpUnitLeakage();
    energy_.addStatic(leakage, static_cast<double>(frame_cycles) /
                                   config_.frequencyHz);

    frameStateAccesses_ = 0;
    frameStateMisses_ = 0;
    frameArcAccesses_ = 0;
    frameArcMisses_ = 0;
    frameLatticeWrites_ = 0;
    frameLatticeMisses_ = 0;
}

ViterbiSimResult
ViterbiAcceleratorSim::result() const
{
    ViterbiSimResult r;
    r.cycles = cycles_;
    r.seconds = static_cast<double>(cycles_) / config_.frequencyHz;
    r.energy = energy_;
    r.stateCache = stateCache_.stats();
    r.arcCache = arcCache_.stats();
    r.latticeCache = latticeCache_.stats();
    r.missLines = missLines_;
    r.overflowLines = overflowLines_;
    r.frames = frames_;
    return r;
}

void
ViterbiAcceleratorSim::recordTelemetry() const
{
    auto &reg = telemetry::MetricRegistry::global();
    reg.counter("accel.viterbi.cycles", "cycles").add(cycles_);
    reg.counter("accel.viterbi.frames", "frames").add(frames_);
    reg.counter("accel.viterbi.miss_lines", "lines").add(missLines_);
    reg.counter("accel.viterbi.overflow_lines", "lines")
        .add(overflowLines_);
    reg.counter("accel.viterbi.state_cache_misses", "accesses")
        .add(stateCache_.stats().misses);
    reg.counter("accel.viterbi.arc_cache_misses", "accesses")
        .add(arcCache_.stats().misses);
}

void
ViterbiAcceleratorSim::resetStats()
{
    cycles_ = 0;
    frames_ = 0;
    missLines_ = 0;
    overflowLines_ = 0;
    energy_ = EnergyAccount{};
    stateCache_.resetStats();
    arcCache_.resetStats();
    latticeCache_.resetStats();
}

double
ViterbiAcceleratorSim::area() const
{
    const std::size_t hash_bytes =
        (config_.hashEntries +
         (config_.hash == HashOrganisation::UnboundedBaseline
              ? config_.backupEntries
              : 0)) *
        config_.hashEntryBytes;
    double area = stateCache_.area() + arcCache_.area() +
        latticeCache_.area() + likelihoodMem_.area +
        EnergyModel::sram(hash_bytes).area +
        10.0 * EnergyModel::fpUnitArea();
    if (config_.hash == HashOrganisation::NBestSetAssociative) {
        // Max-Heap index vectors + parallel comparators: the paper
        // reports a 6% area overhead on the hash structure.
        area += EnergyModel::sram(hash_bytes).area * 0.06;
    }
    return area;
}

double
ViterbiAcceleratorSim::hashAccessEnergy() const
{
    return hashMem_.accessEnergy;
}

} // namespace darkside

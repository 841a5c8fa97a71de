#include "system/asr_system.hh"

#include <atomic>
#include <cstring>
#include <optional>
#include <thread>

#include "decoder/piped_observer.hh"
#include "decoder/search_telemetry.hh"
#include "decoder/watchdog.hh"
#include "nbest/adaptive_selectors.hh"
#include "fault/fault.hh"
#include "telemetry/metrics.hh"
#include "telemetry/snapshot.hh"
#include "util/bits.hh"
#include "util/pod_codec.hh"

namespace darkside {

namespace {

/** Lower-case pruning-level suffix for metric names ("np", "70", ...). */
const char *
pruneSuffix(PruneLevel level)
{
    switch (level) {
      case PruneLevel::None:
        return "np";
      case PruneLevel::P70:
        return "70";
      case PruneLevel::P80:
        return "80";
      case PruneLevel::P90:
        return "90";
    }
    return "?";
}

/** Holds one place in a count of concurrent work while it lives. */
class CountedScope
{
  public:
    explicit CountedScope(std::atomic<std::size_t> &count)
        : count_(count), position_(count.fetch_add(1) + 1)
    {}

    CountedScope(const CountedScope &) = delete;
    CountedScope &operator=(const CountedScope &) = delete;

    ~CountedScope() { count_.fetch_sub(1); }

    /** The count, this scope included, when it began. */
    std::size_t position() const { return position_; }

  private:
    std::atomic<std::size_t> &count_;
    std::size_t position_;
};

/** Payload-kind tag of persistent acoustic-score artifacts. */
constexpr const char *kScoresKind = "acoustic-scores";

/**
 * Reduced, serializable record of one utterance's run: exactly the
 * fields the input-order merge consumes. This is what a checkpoint
 * unit persists, so a replayed unit feeds the merge the same bytes a
 * live run would have.
 */
struct UtteranceOutcome
{
    bool degraded = false;
    std::string faultCause;
    std::uint64_t frames = 0;
    std::uint64_t survivors = 0;
    std::uint64_t generated = 0;
    double meanConfidence = 0.0;
    StageCost dnn;
    StageCost viterbi;
    std::vector<WordId> words;
};

UtteranceOutcome
outcomeOf(UtteranceRun &&run)
{
    UtteranceOutcome o;
    o.degraded = run.degraded;
    o.faultCause = std::move(run.faultCause);
    o.frames = run.frames;
    o.survivors = run.decode.totalSurvivors();
    o.generated = run.decode.totalGenerated();
    o.meanConfidence = run.meanConfidence;
    o.dnn = run.dnn;
    o.viterbi = run.viterbi;
    o.words = std::move(run.decode.words);
    return o;
}

// --- journal record: one batch's outcomes ----------------------------

std::string
encodeRecord(const std::vector<UtteranceOutcome> &outcomes,
             std::size_t begin, std::size_t end)
{
    std::string out;
    for (std::size_t i = begin; i < end; ++i) {
        const UtteranceOutcome &o = outcomes[i];
        appendPod<std::uint8_t>(out, o.degraded ? 1 : 0);
        appendString(out, o.faultCause);
        appendPod<std::uint64_t>(out, o.frames);
        appendPod<std::uint64_t>(out, o.survivors);
        appendPod<std::uint64_t>(out, o.generated);
        appendPod<double>(out, o.meanConfidence);
        appendPod<double>(out, o.dnn.seconds);
        appendPod<double>(out, o.dnn.joules);
        appendPod<double>(out, o.viterbi.seconds);
        appendPod<double>(out, o.viterbi.joules);
        appendPod<std::uint64_t>(out, o.words.size());
        for (const WordId w : o.words)
            appendPod<std::uint32_t>(out, w);
    }
    return out;
}

/** Decode a record holding exactly `decoded.size()` outcomes. */
Status
decodeRecord(const std::string &record,
             std::vector<UtteranceOutcome> &decoded)
{
    std::size_t offset = 0;
    for (auto &o : decoded) {
        std::uint8_t degraded = 0;
        std::uint64_t word_count = 0;
        if (!consumePod(record, offset, degraded) || degraded > 1 ||
            !consumeString(record, offset, o.faultCause) ||
            !consumePod(record, offset, o.frames) ||
            !consumePod(record, offset, o.survivors) ||
            !consumePod(record, offset, o.generated) ||
            !consumePod(record, offset, o.meanConfidence) ||
            !consumePod(record, offset, o.dnn.seconds) ||
            !consumePod(record, offset, o.dnn.joules) ||
            !consumePod(record, offset, o.viterbi.seconds) ||
            !consumePod(record, offset, o.viterbi.joules) ||
            !consumePod(record, offset, word_count) ||
            !consumePodVector(record, offset, word_count, o.words)) {
            return Status::error("malformed record");
        }
        o.degraded = degraded != 0;
    }
    if (offset != record.size())
        return Status::error("malformed record");
    return Status::ok();
}

} // namespace

const char *
searchModeName(SearchMode mode)
{
    switch (mode) {
      case SearchMode::Baseline:
        return "Baseline";
      case SearchMode::NarrowBeam:
        return "Beam";
      case SearchMode::NBestHash:
        return "NBest";
      case SearchMode::RelativeThreshold:
        return "RelThresh";
      case SearchMode::AdaptiveBeam:
        return "Adaptive";
    }
    return "?";
}

std::string
SystemConfig::label() const
{
    std::string suffix;
    switch (prune) {
      case PruneLevel::None:
        suffix = "NP";
        break;
      case PruneLevel::P70:
        suffix = "70";
        break;
      case PruneLevel::P80:
        suffix = "80";
        break;
      case PruneLevel::P90:
        suffix = "90";
        break;
    }
    return std::string(searchModeName(mode)) + "-" + suffix;
}

std::uint64_t
SystemConfig::key() const
{
    std::uint64_t h = 0xc0ffee5eedull;
    for (const char c : label())
        h = mix64(h ^ static_cast<std::uint8_t>(c));
    const auto mixFloat = [&h](float v) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        h = mix64(h ^ bits);
    };
    mixFloat(beam);
    h = mix64(h ^ nbestEntries);
    h = mix64(h ^ nbestWays);
    mixFloat(relMargin);
    h = mix64(h ^ relMaxSurvivors);
    mixFloat(adaptiveMinMargin);
    mixFloat(adaptiveMaxMargin);
    mixFloat(adaptiveEmaAlpha);
    return h;
}

AsrSystem::AsrSystem(const Corpus &corpus, const Wfst &fst,
                     const ModelZoo &zoo, const PlatformConfig &platform)
    : corpus_(corpus), fst_(fst), zoo_(zoo), platform_(platform),
      dnnAccelSim_(platform.dnnAccel), dnnSimCache_(4), engineCache_(4),
      scoreCache_(kScoreCacheCapacity,
                  platform.scoreCacheShards ? platform.scoreCacheShards
                                            : 1,
                  "system.score_cache")
{}

std::unique_ptr<HypothesisSelector>
AsrSystem::makeSelector(const SystemConfig &config) const
{
    if (config.mode == SearchMode::NBestHash) {
        return std::make_unique<SetAssociativeHash>(config.nbestEntries,
                                                    config.nbestWays);
    }
    if (config.mode == SearchMode::RelativeThreshold) {
        return std::make_unique<RelativeThresholdSelector>(
            config.relMargin, config.relMaxSurvivors);
    }
    if (config.mode == SearchMode::AdaptiveBeam) {
        return std::make_unique<AdaptiveBeamSelector>(
            config.adaptiveMinMargin, config.adaptiveMaxMargin,
            config.adaptiveEmaAlpha);
    }
    const auto &vc = platform_.viterbiBaseline;
    return std::make_unique<UnboundedSelector>(vc.hashEntries,
                                               vc.backupEntries);
}

ViterbiAccelConfig
AsrSystem::viterbiConfigFor(const SystemConfig &config) const
{
    if (config.mode == SearchMode::NBestHash) {
        ViterbiAccelConfig vc = platform_.viterbiNBest;
        vc.hash = HashOrganisation::NBestSetAssociative;
        vc.hashEntries = config.nbestEntries;
        vc.backupEntries = 0;
        return vc;
    }
    ViterbiAccelConfig vc = platform_.viterbiBaseline;
    vc.hash = HashOrganisation::UnboundedBaseline;
    return vc;
}

const DnnSimResult &
AsrSystem::dnnSim(PruneLevel level)
{
    std::lock_guard<std::mutex> lock(simMutex_);
    auto &slot = dnnSimCache_[static_cast<std::size_t>(level)];
    if (!slot)
        slot = dnnAccelSim_.simulate(zoo_.model(level));

    // Republished on every call (not just the computing one): the sim
    // cache outlives telemetry resets, and the values are pure functions
    // of the model, so rewriting them is idempotent and keeps gauges
    // present after a MetricRegistry::reset().
    auto &reg = telemetry::MetricRegistry::global();
    const std::string prefix =
        std::string("accel.dnn.") + pruneSuffix(level) + ".";
    reg.setGauge(prefix + "cycles_per_frame", "cycles",
                 static_cast<double>(slot->cyclesPerFrame));
    reg.setGauge(prefix + "seconds_per_frame", "s",
                 slot->secondsPerFrame);
    reg.setGauge(prefix + "dynamic_joules_per_frame", "J",
                 slot->dynamicJoulesPerFrame);
    reg.setGauge(prefix + "fc_utilization", "ratio",
                 slot->fcUtilization);
    reg.setGauge(prefix + "model_bytes", "bytes",
                 static_cast<double>(slot->modelBytes));
    reg.setGauge(prefix + "load_seconds", "s", slot->loadSeconds);
    return *slot;
}

ThreadPool &
AsrSystem::simHelpers()
{
    // Half the cores: runUtterance pipes no more decodes than there
    // are helpers, so piped decodes and their helpers never outnumber
    // the cores. Below four cores the pool has no workers.
    std::call_once(simHelpersOnce_, [this] {
        simHelpers_ = std::make_unique<ThreadPool>(
            std::thread::hardware_concurrency() / 2);
    });
    return *simHelpers_;
}

void
AsrSystem::attachStore(std::shared_ptr<const ArtifactStore> store)
{
    scoreStore_ = std::move(store);
}

const InferenceEngine &
AsrSystem::engineFor(PruneLevel level)
{
    std::lock_guard<std::mutex> lock(engineMutex_);
    auto &slot = engineCache_[static_cast<std::size_t>(level)];
    if (!slot)
        slot.emplace(zoo_.model(level));
    return *slot;
}

std::shared_ptr<const AcousticScores>
AsrSystem::readPersistedScores(const ScoreKey &key)
{
    // Between the in-memory LRU and a fresh compute sits the optional
    // persistent score cache: a verified artifact restores bit-exactly,
    // so a hit decodes identically to a recompute. A missing,
    // quarantined or malformed artifact simply falls through.
    if (!scoreStore_)
        return nullptr;
    char score_name[64];
    std::snprintf(score_name, sizeof(score_name),
                  "scores/%s_%016llx.bin",
                  pruneSuffix(static_cast<PruneLevel>(key.first)),
                  static_cast<unsigned long long>(key.second));
    auto payload = scoreStore_->read(score_name, kScoresKind);
    if (!payload)
        return nullptr;
    auto restored = AcousticScores::deserialize(
        payload.value(), scoreStore_->pathOf(score_name));
    if (!restored.isOk()) {
        warn("score cache: %s", restored.message().c_str());
        return nullptr;
    }
    return std::make_shared<const AcousticScores>(restored.take());
}

void
AsrSystem::persistScores(const ScoreKey &key,
                         const AcousticScores &scores)
{
    // Persist only clean computes (poisoned scores never get here).
    // Failure to persist only costs a future recompute.
    if (!scoreStore_)
        return;
    char score_name[64];
    std::snprintf(score_name, sizeof(score_name),
                  "scores/%s_%016llx.bin",
                  pruneSuffix(static_cast<PruneLevel>(key.first)),
                  static_cast<unsigned long long>(key.second));
    const Status written = scoreStore_->write(score_name, kScoresKind,
                                              scores.serialize());
    if (!written) {
        warn("score cache: cannot persist '%s' (%s)", score_name,
             written.message().c_str());
    }
}

std::shared_ptr<const AcousticScores>
AsrSystem::scoresFor(const Utterance &utt, PruneLevel level,
                     ThreadPool *pool)
{
    const ScoreKey key(static_cast<int>(level), utt.id);
    const bool cacheable = utt.id != 0;

    bool discarded_corrupt_hit = false;
    if (cacheable) {
        auto found = scoreCache_.lookup(key);
        if (found.scores)
            return found.scores;
        discarded_corrupt_hit = found.corruptDiscarded;
        if (auto restored = readPersistedScores(key))
            return scoreCache_.insert(key, std::move(restored));
    }

    // Compute outside any lock: scoring dominates, and concurrent
    // requests for *different* utterances must not serialise. Two
    // threads racing on the same utterance compute identical scores;
    // the insert below simply keeps the first one's entry.
    auto spliced = corpus_.spliceUtterance(utt);
    if (auto kind = FaultInjector::global().trigger("inference.scores",
                                                    utt.id)) {
        if (*kind != FaultKind::NanScores)
            throw FaultError("inference.scores", *kind, utt.id);
        // Poisoned scores are returned but never cached, so a later
        // fault-free run of the same utterance recomputes cleanly.
        return std::make_shared<const AcousticScores>(
            AcousticScores::poisoned(spliced.size(),
                                     corpus_.classCount()));
    }
    const InferenceEngine &engine = engineFor(level);
    auto scores = std::make_shared<const AcousticScores>(
        AcousticScores::fromEngine(engine, spliced,
                                   platform_.acousticScale, pool));
    if (discarded_corrupt_hit)
        FaultInjector::global().noteRecovered();
    if (!cacheable)
        return scores;

    persistScores(key, *scores);
    return scoreCache_.insert(key, std::move(scores));
}

UtteranceRun
AsrSystem::runUtterance(const Utterance &utt, const SystemConfig &config)
{
    // --- DNN stage ----------------------------------------------------
    // Shared ownership: LRU eviction by a concurrent utterance cannot
    // invalidate the scores while this decode reads them.
    const std::shared_ptr<const AcousticScores> scores_ptr =
        scoresFor(utt, config.prune);
    const AcousticScores &scores = *scores_ptr;
    if (!scores.finite()) {
        // NaN/Inf acoustic scores (the inference.scores nan_scores
        // fault, or a genuinely corrupt scoring stage) would silently
        // produce garbage transcripts; abandon the utterance instead.
        throw FaultError("inference.scores", FaultKind::NanScores,
                         utt.id);
    }

    UtteranceRun run;
    run.frames = scores.frameCount();
    run.meanConfidence = scores.meanConfidence();

    const DnnSimResult &dnn = dnnSim(config.prune);
    run.dnn.seconds = dnn.utteranceSeconds(run.frames);
    run.dnn.joules = dnn.utteranceJoules(run.frames);

    // Shared score buffer in DRAM: the DNN accelerator writes one score
    // vector per frame; the Viterbi accelerator reads it back.
    const double score_bytes = static_cast<double>(run.frames) *
        static_cast<double>(corpus_.classCount()) * 4.0;
    const double buffer_seconds =
        score_bytes / EnergyModel::dramBandwidth();
    const double buffer_joules =
        score_bytes / 64.0 * EnergyModel::dramLineEnergy();
    run.dnn.seconds += buffer_seconds;
    run.dnn.joules += buffer_joules;

    // --- Viterbi stage --------------------------------------------------
    double watchdog_budget = platform_.decodeWatchdogSeconds;
    if (auto kind = FaultInjector::global().trigger("decoder.decode",
                                                    utt.id)) {
        if (*kind != FaultKind::Timeout)
            throw FaultError("decoder.decode", *kind, utt.id);
        // Injected timeout: arm the watchdog already expired so the
        // fault exercises the real frame-boundary abort path.
        watchdog_budget = -1.0;
    }

    const ViterbiAccelConfig vc = viterbiConfigFor(config);
    ViterbiAcceleratorSim accel(vc, fst_);
    auto selector = makeSelector(config);
    const ViterbiDecoder decoder(fst_, DecoderConfig{config.beam});

    // The accelerator simulator replays the decode's hooks through a
    // pipe, declared after it so that a decode that throws drains the
    // pipe before the simulator is destroyed. A pipe keeps at most one
    // helper busy, so a decode gets the helpers only while no more
    // decodes run than there are helpers; beyond that every core is
    // decoding and the decode replays its own batches. The telemetry
    // observer and the watchdog (when armed) stay inline, and the
    // watchdog hangs off a second tee to abort an overrunning decode.
    const CountedScope decoding(decodes_);
    ThreadPool &helpers = simHelpers();
    PipedSearchObserver sim_pipe(
        accel,
        decoding.position() <= helpers.threadCount() ? &helpers : nullptr);
    SearchTelemetry search_telemetry;
    TeeSearchObserver sim_tee(&sim_pipe, &search_telemetry);
    DecodeWatchdog watchdog(watchdog_budget, utt.id);
    TeeSearchObserver observer(
        &sim_tee, watchdog.enabled() ? &watchdog : nullptr);
    run.decode = decoder.decode(scores, *selector, &observer);
    sim_pipe.finish();
    accel.recordTelemetry();

    const ViterbiSimResult vr = accel.result();
    run.viterbi.seconds = vr.seconds + buffer_seconds;
    run.viterbi.joules = vr.energy.totalJoules() + buffer_joules;
    return run;
}

TestSetResult
AsrSystem::runTestSet(const std::vector<Utterance> &utts,
                      const SystemConfig &config, std::size_t threads,
                      UnitJournal *journal)
{
    TestSetResult result;
    result.config = config;

    // Warm the per-level caches up front so parallel workers only read.
    if (!utts.empty()) {
        dnnSim(config.prune);
        engineFor(config.prune);
    }

    // Decode a range of utterances in parallel; each worker writes its
    // own slot. FaultError is the per-utterance isolation boundary: a
    // faulted utterance is recorded as degraded in its own slot and the
    // batch carries on. Anything else (internal bugs, pool.chunk
    // faults) still propagates through the pool's first-exception
    // channel.
    std::vector<UtteranceOutcome> outcomes(utts.size());
    const auto computeRange = [&](std::size_t begin, std::size_t end) {
        ThreadPool pool(threads);
        parallelFor(&pool, end - begin, [&](std::size_t j) {
            const std::size_t i = begin + j;
            try {
                outcomes[i] = outcomeOf(runUtterance(utts[i], config));
            } catch (const FaultError &e) {
                outcomes[i] = UtteranceOutcome{};
                outcomes[i].degraded = true;
                outcomes[i].faultCause = e.what();
            }
        });
    };

    if (!journal) {
        if (!utts.empty())
            computeRange(0, utts.size());
    } else {
        // Journaled: one unit per utterance batch. Each unit
        // persists its slice of outcomes plus the *deterministic*
        // telemetry growth of computing it (store./fault. counters are
        // this machinery's own noise and are excluded); replaying a
        // unit feeds the merge and the registry exactly what the live
        // batch did, so a resumed run aggregates bit-identically at
        // any thread count.
        auto &reg = telemetry::MetricRegistry::global();
        for (std::size_t begin = 0; begin < utts.size();
             begin += kCheckpointBatch) {
            const std::size_t end =
                std::min(begin + kCheckpointBatch, utts.size());
            const std::string unit_id = config.label() + "_n" +
                std::to_string(utts.size()) + "_b" +
                std::to_string(begin / kCheckpointBatch);
            std::uint64_t key = config.key();
            for (std::size_t i = begin; i < end; ++i)
                key = mix64(key ^ utts[i].id);

            if (journal->hasUnit(unit_id)) {
                std::vector<UtteranceOutcome> decoded(end - begin);
                const Status replayed = journal->loadUnit(
                    unit_id, key, [&](const std::string &record) {
                        return decodeRecord(record, decoded);
                    });
                if (replayed) {
                    std::move(decoded.begin(), decoded.end(),
                              outcomes.begin() +
                                  static_cast<std::ptrdiff_t>(begin));
                    reg.counter("store.resumed_units", "units").add(1);
                    continue;
                }
                warn("checkpoint: unit '%s' unusable: %s; recomputing",
                     unit_id.c_str(), replayed.message().c_str());
            }

            // Snapshots are taken at quiescence: computeRange joins
            // its pool before returning.
            const telemetry::Snapshot before = reg.snapshot();
            computeRange(begin, end);
            const telemetry::Snapshot delta =
                reg.snapshot()
                    .deltaSince(before)
                    .deterministic()
                    .withoutPrefixes({"store.", "fault."});
            const Status saved = journal->saveUnit(
                unit_id, key, encodeRecord(outcomes, begin, end), delta);
            if (!saved) {
                // The batch itself succeeded; a journal that cannot
                // accept the unit only costs recomputation on resume.
                warn("checkpoint: cannot save unit '%s' (%s)",
                     unit_id.c_str(), saved.message().c_str());
            }
        }
    }

    // Merge strictly in input order: floating-point accumulation order
    // is then independent of the thread count, keeping WER, confidence
    // and energy aggregates bit-identical to a single-threaded run.
    double confidence_weighted = 0.0;
    std::vector<std::vector<WordId>> hyps;
    std::vector<std::vector<WordId>> refs;

    for (std::size_t i = 0; i < utts.size(); ++i) {
        UtteranceOutcome &run = outcomes[i];
        result.outcomes.push_back(run.faultCause);
        if (run.degraded) {
            // Degraded utterances are excluded from every aggregate;
            // counting here (serial, input order) keeps fault.degraded
            // deterministic for any thread count.
            ++result.degraded;
            FaultInjector::global().noteDegraded();
            continue;
        }
        result.dnn.add(run.dnn);
        result.viterbi.add(run.viterbi);
        result.frames += run.frames;
        result.survivors += run.survivors;
        result.generated += run.generated;
        result.searchLatencyPerSpeechSecond.add(
            run.viterbi.seconds /
            (static_cast<double>(run.frames) * 0.01));

        hyps.push_back(std::move(run.words));
        refs.push_back(utts[i].words);
        confidence_weighted += run.meanConfidence *
            static_cast<double>(run.frames);
    }

    result.wer = scoreTranscripts(hyps, refs);
    result.meanConfidence = result.frames == 0
        ? 0.0
        : confidence_weighted / static_cast<double>(result.frames);

    // Publish test-set aggregates. This merge runs serially in input
    // order, so even the floating-point sums are bit-identical for any
    // thread count; set-style gauges reflect the most recent test set.
    auto &reg = telemetry::MetricRegistry::global();
    reg.counter("system.utterances", "utterances").add(utts.size());
    reg.counter("system.frames", "frames").add(result.frames);
    reg.counter("system.survivors", "hypotheses").add(result.survivors);
    reg.counter("system.generated", "hypotheses").add(result.generated);
    reg.addGauge("system.dnn.seconds", "s", result.dnn.seconds);
    reg.addGauge("system.dnn.joules", "J", result.dnn.joules);
    reg.addGauge("system.viterbi.seconds", "s", result.viterbi.seconds);
    reg.addGauge("system.viterbi.joules", "J", result.viterbi.joules);
    reg.setGauge("system.wer", "ratio", result.wer.wordErrorRate());
    reg.setGauge("system.mean_confidence", "ratio",
                 result.meanConfidence);
    reg.setGauge("system.hyps_per_frame", "hypotheses",
                 result.meanSurvivorsPerFrame());
    return result;
}

} // namespace darkside

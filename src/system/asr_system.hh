/**
 * @file
 * The integrated hardware ASR system (Sec. IV): a DNN accelerator
 * produces acoustic scores into a shared DRAM buffer; the Viterbi
 * accelerator consumes them. This module wires the acoustic models, the
 * decoding graph, both accelerator simulators and a hypothesis-selection
 * policy into the twelve configurations the paper evaluates:
 * {Baseline, Beam, NBest} x {NP, 70, 80, 90}.
 */

#ifndef DARKSIDE_SYSTEM_ASR_SYSTEM_HH
#define DARKSIDE_SYSTEM_ASR_SYSTEM_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "accel/dnn/dnn_accel.hh"
#include "accel/viterbi/viterbi_accel.hh"
#include "decoder/viterbi_decoder.hh"
#include "dnn/inference.hh"
#include "dnn/score_cache.hh"
#include "nbest/selectors.hh"
#include "store/checkpoint.hh"
#include "system/model_zoo.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"
#include "wfst/wfst.hh"

namespace darkside {

class ScoreStream;

/** Search-side configuration family. */
enum class SearchMode : std::uint8_t {
    /** UNFOLD baseline: wide beam, unbounded hypothesis storage. */
    Baseline,
    /** Mitigation 1: narrow the beam per pruning level. */
    NarrowBeam,
    /** The proposal: loose N-best via the set-associative hash. */
    NBestHash,
    /** Software counterpart 1: FLToP-style frame-level relative
     *  threshold with a survivors/frame cap (ROADMAP item 2). */
    RelativeThreshold,
    /** Software counterpart 2: entropy-adaptive beam (EMA-smoothed,
     *  bounded margins). */
    AdaptiveBeam,
};

const char *searchModeName(SearchMode mode);

/** One evaluated system configuration. */
struct SystemConfig
{
    PruneLevel prune = PruneLevel::None;
    SearchMode mode = SearchMode::Baseline;
    /** Beam width (log space). */
    float beam = 15.0f;
    /** N of the loose N-best hash (NBestHash mode). */
    std::size_t nbestEntries = 1024;
    /** Hash associativity (NBestHash mode). */
    std::size_t nbestWays = 8;
    /** Log-space margin over the frame-best cost (RelativeThreshold
     *  mode). */
    float relMargin = 10.0f;
    /** Survivors/frame cap (RelativeThreshold mode). */
    std::size_t relMaxSurvivors = 512;
    /** Margin bounds of the entropy-adaptive beam (AdaptiveBeam
     *  mode): maxMargin under confident frames, minMargin under
     *  maximum-entropy (flat) frames. */
    float adaptiveMinMargin = 6.0f;
    float adaptiveMaxMargin = 12.0f;
    /** EMA weight of the current frame's entropy (AdaptiveBeam). */
    float adaptiveEmaAlpha = 0.3f;

    /** "NBest-90"-style label. */
    std::string label() const;

    /** Hash of all ten fields, prune and mode through label(): the
     *  configuration part of every run-journal key (docs/STORE.md). */
    std::uint64_t key() const;
};

/** Per-stage simulated cost. */
struct StageCost
{
    double seconds = 0.0;
    double joules = 0.0;

    void
    add(const StageCost &o)
    {
        seconds += o.seconds;
        joules += o.joules;
    }
};

/** Outcome of one utterance through the full system. */
struct UtteranceRun
{
    DecodeResult decode;
    StageCost dnn;
    StageCost viterbi;
    std::size_t frames = 0;
    /** Mean acoustic confidence of this utterance's frames. */
    double meanConfidence = 0.0;
    /** True when a fault abandoned this utterance mid-pipeline. */
    bool degraded = false;
    /** Fault cause when degraded ("injected fault timeout at ..."). */
    std::string faultCause;

    /** Seconds of speech this utterance represents (10 ms frames). */
    double speechSeconds() const
    {
        return static_cast<double>(frames) * 0.01;
    }
};

/** Aggregated outcome of a test set. */
struct TestSetResult
{
    SystemConfig config;
    EditStats wer;
    StageCost dnn;
    StageCost viterbi;
    std::uint64_t frames = 0;
    std::uint64_t survivors = 0;
    std::uint64_t generated = 0;
    /** Mean acoustic confidence over all frames. */
    double meanConfidence = 0.0;
    /** Per-utterance Viterbi-search latency per second of speech. */
    PercentileTracker searchLatencyPerSpeechSecond;
    /** Utterances abandoned by a fault (graceful degradation). */
    std::uint64_t degraded = 0;
    /**
     * Per-utterance fault cause, parallel to the input set; empty
     * string for healthy utterances. Aggregates (WER, confidence,
     * energy, latency) cover only the healthy utterances, so every
     * healthy transcript and sum stays bit-identical to a fault-free
     * run over the same inputs minus the degraded ones.
     */
    std::vector<std::string> outcomes;

    double totalSeconds() const { return dnn.seconds + viterbi.seconds; }
    double totalJoules() const { return dnn.joules + viterbi.joules; }
    double
    meanSurvivorsPerFrame() const
    {
        return frames == 0 ? 0.0
                           : static_cast<double>(survivors) /
                static_cast<double>(frames);
    }
};

/** Hardware parameters of the whole platform. */
struct PlatformConfig
{
    DnnAccelConfig dnnAccel;
    /** Baseline (UNFOLD) Viterbi accelerator. */
    ViterbiAccelConfig viterbiBaseline;
    /** Proposal Viterbi accelerator (hash fields overridden per run). */
    ViterbiAccelConfig viterbiNBest;
    float acousticScale = 1.0f;
    /**
     * Wall-clock budget per decode task; an overrunning decode is
     * aborted at the next frame boundary and the utterance degraded.
     * Scoring runs beside the decode, so the budget also covers the
     * decode's waits for score windows. 0 disables the watchdog (the
     * default: wall-clock deadlines are inherently nondeterministic,
     * so opt-in only).
     */
    double decodeWatchdogSeconds = 0.0;
    /**
     * Shards of the acoustic-score LRU cache (rounded up to a power of
     * two). Shard assignment is a pure function of the (level,
     * utterance id) key, so cached contents are identical for any
     * thread count; more shards only reduce lock contention.
     */
    std::size_t scoreCacheShards = 8;
};

/**
 * The end-to-end simulated ASR platform.
 */
class AsrSystem
{
  public:
    AsrSystem(const Corpus &corpus, const Wfst &fst, const ModelZoo &zoo,
              const PlatformConfig &platform);

    /**
     * Run one utterance under a configuration. Thread-safe.
     *
     * Scoring runs beside the search, as the paper's DNN accelerator
     * fills the shared score buffer while the Viterbi accelerator reads
     * it: the utterance opens a ScoreStream, helpers prefetch it in
     * windows of the engine's GEMM batch (InferenceEngine::
     * batchFrames()), and the decode advances a ViterbiStream over
     * each window as soon as its rows are published, scoring a window
     * itself when no helper is scoring it. The stream is finished
     * afterwards, so the matrix reaches the LRU and the store exactly
     * as scoresFor leaves it, also when a fault abandons the decode.
     *
     * The Viterbi-accelerator simulator runs beside the search too:
     * the decode thread records the expanded-state stream and the
     * frame activity in batches of PipedSearchObserver::kBatchFrames
     * frames, at most PipedSearchObserver::kBatches of them in flight,
     * and a helper thread replays them into the simulator. The
     * simulator sees the same calls in the same order as an observer
     * attached to the decode directly, so its cycles, cache statistics
     * and joules are bit-identical.
     *
     * Both use helpers() only while no more decodes run than there are
     * helpers; otherwise, or without helpers, the decode thread scores
     * each window and replays each batch itself. The search telemetry
     * and the decode watchdog stay on the decode thread, and a decode
     * the watchdog aborts waits for its published batches before it
     * unwinds.
     */
    UtteranceRun runUtterance(const Utterance &utt,
                              const SystemConfig &config);

    /**
     * Run a whole test set and aggregate.
     *
     * @param threads worker count; utterances are decoded in parallel
     *        and merged in input order, so every aggregate (WER,
     *        confidence, energy, latency percentiles) is bit-identical
     *        to the single-threaded run
     * @param journal optional run journal: the test set is processed
     *        in batches of kCheckpointBatch utterances, each committed
     *        as one unit (outcomes + deterministic telemetry delta)
     *        keyed on config.key() and the batch's utterance ids. A
     *        unit whose key matches is replayed instead of recomputed,
     *        so a killed run rerun on the same journal reproduces
     *        bit-identical aggregates at any thread count
     *        (docs/STORE.md)
     */
    TestSetResult runTestSet(const std::vector<Utterance> &utts,
                             const SystemConfig &config,
                             std::size_t threads = 1,
                             UnitJournal *journal = nullptr);

    /**
     * Attach a persistent acoustic-score cache: cacheable scores are
     * committed to `store` (kind "acoustic-scores") after a clean
     * compute and consulted between the in-memory LRU and a fresh
     * compute. Scores round-trip bit-exactly, so hits decode
     * identically to fresh computes. Poisoned or faulted scores are
     * never persisted.
     */
    void attachStore(std::shared_ptr<const ArtifactStore> store);

    /** Compiled inference engine for a pruning level (cached). */
    const InferenceEngine &engineFor(PruneLevel level);

    /** Selector implementing a configuration's survival policy. */
    std::unique_ptr<HypothesisSelector>
    makeSelector(const SystemConfig &config) const;

    /** Accelerator configuration a system configuration runs on. */
    ViterbiAccelConfig viterbiConfigFor(const SystemConfig &config) const;

    /** DNN-accelerator simulation of a pruning level (cached). */
    const DnnSimResult &dnnSim(PruneLevel level);

    const Corpus &corpus() const { return corpus_; }
    const Wfst &fst() const { return fst_; }
    const ModelZoo &zoo() const { return zoo_; }
    const PlatformConfig &platform() const { return platform_; }

    /** Entries kept in the acoustic-score LRU cache. */
    static constexpr std::size_t kScoreCacheCapacity = 256;

    /** Utterances per checkpoint unit (see runTestSet). */
    static constexpr std::size_t kCheckpointBatch = 8;

    /**
     * Score an utterance with a model, memoised per (level, utterance
     * id) in a bounded LRU cache: openScoreStream(utt, level)->
     * finish(). Utterances without an id (id == 0) are scored fresh
     * each time. Thread-safe; the returned scores are shared ownership
     * so eviction cannot invalidate a reader. Public so benchmarks can
     * score once and time the decode alone.
     */
    std::shared_ptr<const AcousticScores>
    scoresFor(const Utterance &utt, PruneLevel level);

    /**
     * Open an incremental scoring stream for an utterance
     * (src/system/score_stream.hh). Scores already resident in the LRU
     * or the persistent store arrive complete; otherwise the stream
     * scores frame windows on demand (ensureScored) or ahead of the
     * consumer on helper tasks (startPrefetch), and finish() commits
     * the completed matrix to the LRU and the store. Throws FaultError
     * when the inference.scores probe injects a non-NaN fault.
     */
    std::unique_ptr<ScoreStream> openScoreStream(const Utterance &utt,
                                                 PruneLevel level);

    /**
     * The helper pool: it replays the Viterbi simulator of batch
     * decodes and prefetches score windows for batch decodes and serve
     * sessions (see runUtterance and ScoreStream::startPrefetch). Half
     * the host's cores as workers, none below four cores; started on
     * the first call and joined when the system is destroyed.
     */
    ThreadPool &helpers();

  private:
    friend class ScoreStream;

    /** Persistent-store read path of ScoreStream. Null when the
     *  store does not hold the key. */
    std::shared_ptr<const AcousticScores> readPersistedScores(
        const ScoreKey &key);
    /** Best-effort write-through to the persistent store. */
    void persistScores(const ScoreKey &key,
                       const AcousticScores &scores);

    const Corpus &corpus_;
    const Wfst &fst_;
    const ModelZoo &zoo_;
    PlatformConfig platform_;
    /** Persistent score cache; null until attachStore(). */
    std::shared_ptr<const ArtifactStore> scoreStore_;
    DnnAcceleratorSim dnnAccelSim_;
    std::mutex simMutex_;
    std::vector<std::optional<DnnSimResult>> dnnSimCache_;
    std::mutex engineMutex_;
    std::vector<std::optional<InferenceEngine>> engineCache_;

    /** Hash-sharded acoustic-score LRU (dnn/score_cache.hh). */
    ShardedScoreCache<AcousticScores> scoreCache_;

    /** runUtterance decodes in flight (the helpers' admission). */
    std::atomic<std::size_t> decodes_{0};
    std::once_flag helpersOnce_;
    std::unique_ptr<ThreadPool> helpers_;
};

} // namespace darkside

#endif // DARKSIDE_SYSTEM_ASR_SYSTEM_HH

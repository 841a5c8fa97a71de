/**
 * @file
 * Tests of the system layer: model zoo (training, pruning targets,
 * caching), configuration plumbing and the end-to-end cost accounting
 * of AsrSystem on a miniature experiment.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "decoder/piped_observer.hh"
#include "decoder/search_telemetry.hh"
#include "dnn/score_cache.hh"
#include "fault/fault.hh"
#include "mini_setup.hh"
#include "system/score_stream.hh"
#include "telemetry/metrics.hh"
#include "telemetry/snapshot.hh"

namespace darkside {
namespace {

/** Shared across tests in this binary: training once is enough. */
ExperimentContext &
context()
{
    static ExperimentContext ctx(miniSetup());
    return ctx;
}

TEST(PruneLevelHelpers, NamesAndTargets)
{
    EXPECT_STREQ(pruneLevelName(PruneLevel::None), "Baseline");
    EXPECT_STREQ(pruneLevelName(PruneLevel::P90), "90%Pruning");
    EXPECT_DOUBLE_EQ(pruneLevelTarget(PruneLevel::None), 0.0);
    EXPECT_DOUBLE_EQ(pruneLevelTarget(PruneLevel::P70), 0.7);
    EXPECT_DOUBLE_EQ(pruneLevelTarget(PruneLevel::P90), 0.9);
}

TEST(SystemConfigLabels, MatchPaperNaming)
{
    ExperimentSetup setup = miniSetup();
    EXPECT_EQ(setup.configFor(SearchMode::Baseline, PruneLevel::None)
                  .label(),
              "Baseline-NP");
    EXPECT_EQ(setup.configFor(SearchMode::NarrowBeam, PruneLevel::P80)
                  .label(),
              "Beam-80");
    EXPECT_EQ(setup.configFor(SearchMode::NBestHash, PruneLevel::P90)
                  .label(),
              "NBest-90");
}

TEST(ExperimentSetupBeams, NarrowBeamsShrinkWithPruning)
{
    const ExperimentSetup setup = miniSetup();
    EXPECT_EQ(setup.beamFor(SearchMode::Baseline, PruneLevel::P90),
              setup.baselineBeam);
    EXPECT_LT(setup.beamFor(SearchMode::NarrowBeam, PruneLevel::P90),
              setup.beamFor(SearchMode::NarrowBeam, PruneLevel::None));
}

TEST(ModelZoo, AchievesPruningTargets)
{
    const auto &zoo = context().zoo;
    for (PruneLevel level :
         {PruneLevel::P70, PruneLevel::P80, PruneLevel::P90}) {
        const PruneReport &report = zoo.pruneReport(level);
        EXPECT_NEAR(report.globalPrunedFraction(),
                    pruneLevelTarget(level), 0.03)
            << pruneLevelName(level);
        EXPECT_GT(zoo.quality(level), 0.0);
    }
    // Quality parameter grows with the pruning target (paper: 1.44 /
    // 1.90 / 2.71).
    EXPECT_LT(zoo.quality(PruneLevel::P70), zoo.quality(PruneLevel::P80));
    EXPECT_LT(zoo.quality(PruneLevel::P80), zoo.quality(PruneLevel::P90));
}

TEST(ModelZoo, PrunedModelsKeepMasks)
{
    const auto &zoo = context().zoo;
    for (PruneLevel level :
         {PruneLevel::P70, PruneLevel::P80, PruneLevel::P90}) {
        std::size_t masked_layers = 0;
        for (const auto *fc : zoo.model(level).fullyConnectedLayers()) {
            if (fc->hasMask())
                ++masked_layers;
        }
        EXPECT_GT(masked_layers, 0u) << pruneLevelName(level);
    }
}

TEST(ModelZoo, ConfidenceDropsWithPruning)
{
    // The paper's Fig. 3 at miniature scale: top-1 confidence of the
    // pruned models is below the dense model's.
    const auto &ctx = context();
    const FrameDataset test =
        ctx.corpus.frameDataset(ctx.corpus.sampleUtterances(6, 999));

    const double base =
        Trainer::evaluate(ctx.zoo.model(PruneLevel::None), test)
            .meanConfidence;
    const double p90 =
        Trainer::evaluate(ctx.zoo.model(PruneLevel::P90), test)
            .meanConfidence;
    EXPECT_LT(p90, base);
}

TEST(ModelZoo, DiskCacheRoundTrip)
{
    ExperimentSetup setup = miniSetup();
    setup.zoo.trainUtterances = 10;
    setup.zoo.training.epochs = 1;
    setup.zoo.retraining.epochs = 1;
    const std::string dir = testing::TempDir() + "/zoo_cache";
    setup.zoo.cacheDir = dir;

    const Corpus corpus(setup.corpus);
    const ModelZoo first(corpus, setup.zoo);
    const ModelZoo second(corpus, setup.zoo); // must hit the cache

    Vector in(corpus.spliceDim(), 0.1f);
    Vector a, b;
    first.model(PruneLevel::P80).forward(in, a);
    second.model(PruneLevel::P80).forward(in, b);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]);
    std::filesystem::remove_all(dir);
}

TEST(AsrSystem, SelectorFactoryMatchesMode)
{
    auto &ctx = context();
    const auto baseline = ctx.setup.configFor(SearchMode::Baseline,
                                              PruneLevel::None);
    const auto nbest = ctx.setup.configFor(SearchMode::NBestHash,
                                           PruneLevel::None);
    EXPECT_STREQ(ctx.system.makeSelector(baseline)->name(), "unbounded");
    EXPECT_NE(std::string(ctx.system.makeSelector(nbest)->name())
                  .find("way-hash"),
              std::string::npos);
}

TEST(AsrSystem, ViterbiConfigMatchesMode)
{
    auto &ctx = context();
    const auto vc_base = ctx.system.viterbiConfigFor(
        ctx.setup.configFor(SearchMode::Baseline, PruneLevel::None));
    EXPECT_EQ(vc_base.hash, HashOrganisation::UnboundedBaseline);
    const auto vc_nbest = ctx.system.viterbiConfigFor(
        ctx.setup.configFor(SearchMode::NBestHash, PruneLevel::P90));
    EXPECT_EQ(vc_nbest.hash, HashOrganisation::NBestSetAssociative);
    EXPECT_EQ(vc_nbest.hashEntries, ctx.setup.nbestEntries);
    EXPECT_EQ(vc_nbest.backupEntries, 0u);
}

TEST(AsrSystem, UtteranceRunProducesCosts)
{
    auto &ctx = context();
    const auto config =
        ctx.setup.configFor(SearchMode::Baseline, PruneLevel::None);
    const UtteranceRun run =
        ctx.system.runUtterance(ctx.testSet[0], config);
    EXPECT_GT(run.frames, 0u);
    EXPECT_GT(run.dnn.seconds, 0.0);
    EXPECT_GT(run.dnn.joules, 0.0);
    EXPECT_GT(run.viterbi.seconds, 0.0);
    EXPECT_GT(run.viterbi.joules, 0.0);
    EXPECT_GT(run.meanConfidence, 0.0);
    EXPECT_LE(run.meanConfidence, 1.0);
    EXPECT_GT(run.speechSeconds(), 0.0);
}

TEST(AsrSystem, PruningSpeedsUpDnnStage)
{
    auto &ctx = context();
    const auto &dense = ctx.system.dnnSim(PruneLevel::None);
    const auto &p90 = ctx.system.dnnSim(PruneLevel::P90);
    EXPECT_LT(p90.cyclesPerFrame, dense.cyclesPerFrame);
    EXPECT_LT(p90.modelBytes, dense.modelBytes);
}

TEST(AsrSystem, TestSetAggregation)
{
    auto &ctx = context();
    const auto config =
        ctx.setup.configFor(SearchMode::Baseline, PruneLevel::None);
    const TestSetResult result =
        ctx.system.runTestSet(ctx.testSet, config);
    EXPECT_EQ(result.config.label(), "Baseline-NP");
    EXPECT_GT(result.frames, 0u);
    EXPECT_GT(result.survivors, 0u);
    EXPECT_GE(result.generated, result.survivors);
    EXPECT_GT(result.totalSeconds(), 0.0);
    EXPECT_GT(result.totalJoules(), 0.0);
    EXPECT_EQ(result.searchLatencyPerSpeechSecond.count(),
              ctx.testSet.size());
    // A trained mini model on matched data should decode mostly right.
    EXPECT_LT(result.wer.wordErrorRate(), 0.7);
}

TEST(AsrSystem, NBestBoundsSurvivors)
{
    auto &ctx = context();
    auto config =
        ctx.setup.configFor(SearchMode::NBestHash, PruneLevel::P90);
    config.nbestEntries = 128;
    config.nbestWays = 8;
    const TestSetResult result =
        ctx.system.runTestSet(ctx.testSet, config);
    EXPECT_LE(result.meanSurvivorsPerFrame(), 128.0);
}

/** Every aggregate that must be independent of the thread count. */
void
expectIdenticalResults(const TestSetResult &a, const TestSetResult &b)
{
    EXPECT_EQ(a.wer.substitutions, b.wer.substitutions);
    EXPECT_EQ(a.wer.insertions, b.wer.insertions);
    EXPECT_EQ(a.wer.deletions, b.wer.deletions);
    EXPECT_EQ(a.wer.referenceLength, b.wer.referenceLength);
    EXPECT_EQ(a.meanConfidence, b.meanConfidence);
    EXPECT_EQ(a.frames, b.frames);
    EXPECT_EQ(a.survivors, b.survivors);
    EXPECT_EQ(a.generated, b.generated);
    EXPECT_EQ(a.dnn.seconds, b.dnn.seconds);
    EXPECT_EQ(a.dnn.joules, b.dnn.joules);
    EXPECT_EQ(a.viterbi.seconds, b.viterbi.seconds);
    EXPECT_EQ(a.viterbi.joules, b.viterbi.joules);
}

TEST(AsrSystem, RunTestSetIsThreadCountInvariant)
{
    auto &ctx = context();
    const auto config =
        ctx.setup.configFor(SearchMode::Baseline, PruneLevel::P90);

    // Fresh ids per run so every run scores cold — the comparison then
    // covers the threaded scoring path, not just cache replay.
    auto cold = [&](std::uint64_t base) {
        auto utts = ctx.testSet;
        for (std::size_t i = 0; i < utts.size(); ++i)
            utts[i].id = base + i;
        return utts;
    };
    const TestSetResult r1 =
        ctx.system.runTestSet(cold(1ull << 50), config, 1);
    const TestSetResult r2 =
        ctx.system.runTestSet(cold(1ull << 51), config, 2);
    const TestSetResult r4 =
        ctx.system.runTestSet(cold(1ull << 52), config, 4);
    expectIdenticalResults(r1, r2);
    expectIdenticalResults(r1, r4);
}

TEST(AsrSystem, MetricsSnapshotIsThreadCountInvariant)
{
    auto &ctx = context();
    const auto config =
        ctx.setup.configFor(SearchMode::Baseline, PruneLevel::P90);

    // Fresh ids so both runs score cold (the LRU score cache would
    // otherwise short-circuit the second run's DNN stage).
    auto cold = [&](std::uint64_t base) {
        auto utts = ctx.testSet;
        for (std::size_t i = 0; i < utts.size(); ++i)
            utts[i].id = base + i;
        return utts;
    };

    auto &reg = telemetry::MetricRegistry::global();
    auto run = [&](std::uint64_t base, std::size_t threads) {
        reg.reset();
        ctx.system.runTestSet(cold(base), config, threads);
        return reg.snapshot().deterministic().toJson();
    };

    // The deterministic view must serialize byte-identically for any
    // worker count; non-deterministic metrics (wall timers, pool
    // scheduling, cache races) are excluded by contract.
    const std::string serial = run(1ull << 53, 1);
    EXPECT_EQ(serial, run(1ull << 54, 2));
    EXPECT_EQ(serial, run(1ull << 55, 4));
}

TEST(AsrSystem, ScoreCacheReplayMatchesColdRun)
{
    auto &ctx = context();
    const auto config =
        ctx.setup.configFor(SearchMode::Baseline, PruneLevel::P70);
    // First run populates the (level, utterance id) LRU; the second is
    // served from it and must reproduce every aggregate.
    const TestSetResult cold =
        ctx.system.runTestSet(ctx.testSet, config, 1);
    const TestSetResult warm =
        ctx.system.runTestSet(ctx.testSet, config, 1);
    expectIdenticalResults(cold, warm);
}

TEST(ShardedScoreCacheUnit, RoundsShardsAndKeepsLruPerShard)
{
    // 3 shards round up to 4; 16 total entries leave 4 per shard.
    ShardedScoreCache<int> cache(16, 3, "");
    EXPECT_EQ(cache.shardCount(), 4u);
    EXPECT_EQ(cache.capacity(), 16u);
    // Shards never outnumber entries: every shard holds at least one.
    EXPECT_LE(ShardedScoreCache<int>(2, 64, "").shardCount(), 2u);

    // Existing entry wins a racing double-insert: both computed
    // identical scores, the cache keeps the resident one.
    const ScoreKey key{2, 42};
    const auto first = cache.insert(key, std::make_shared<int>(1));
    const auto second = cache.insert(key, std::make_shared<int>(2));
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(*second, 1);
    EXPECT_EQ(cache.lookup(key).scores.get(), first.get());
    EXPECT_FALSE(cache.lookup(key).corruptDiscarded);

    // Distinct (level, id) keys never alias.
    EXPECT_EQ(cache.lookup({3, 42}).scores, nullptr);

    // Flood well past capacity: the cache stays bounded and the most
    // recently inserted key is always resident (it is its shard's MRU).
    for (std::uint64_t id = 100; id < 200; ++id) {
        const ScoreKey k{0, id};
        cache.insert(k, std::make_shared<int>(static_cast<int>(id)));
        ASSERT_NE(cache.lookup(k).scores, nullptr);
        ASSERT_LE(cache.size(), cache.capacity());
    }
}

TEST(AsrSystem, ShardCountInvariance)
{
    // The shard of a key is a pure function of the key, so the cached
    // contents — and with them every aggregate and every deterministic
    // metric — are identical whatever the shard count and whatever the
    // worker count. Fresh AsrSystems share the trained zoo.
    auto &ctx = context();
    const auto config =
        ctx.setup.configFor(SearchMode::Baseline, PruneLevel::P90);
    auto &reg = telemetry::MetricRegistry::global();

    struct Run
    {
        TestSetResult result;
        std::string snapshot;
    };
    auto run = [&](std::size_t shards, std::size_t threads) {
        PlatformConfig platform = ctx.setup.platform;
        platform.scoreCacheShards = shards;
        AsrSystem system(ctx.corpus, ctx.fst, ctx.zoo, platform);
        reg.reset();
        Run r;
        r.result = system.runTestSet(ctx.testSet, config, threads);
        // Second pass over the same set: served from the sharded LRU.
        const TestSetResult warm =
            system.runTestSet(ctx.testSet, config, threads);
        expectIdenticalResults(r.result, warm);
        r.snapshot = reg.snapshot().deterministic().toJson();
        return r;
    };

    const Run want = run(1, 1);
    for (const std::size_t shards : {2u, 4u}) {
        for (const std::size_t threads : {1u, 2u, 4u}) {
            const Run got = run(shards, threads);
            expectIdenticalResults(got.result, want.result);
            EXPECT_EQ(got.snapshot, want.snapshot)
                << shards << " shards, " << threads << " threads";
        }
    }
}

TEST(AsrSystem, UncacheableUtterancesStillDecode)
{
    auto &ctx = context();
    const auto config =
        ctx.setup.configFor(SearchMode::Baseline, PruneLevel::None);
    auto utts = ctx.testSet;
    for (auto &utt : utts)
        utt.id = 0; // hand-built: no stable identity, no caching
    const TestSetResult a = ctx.system.runTestSet(utts, config, 2);
    const TestSetResult b = ctx.system.runTestSet(utts, config, 2);
    expectIdenticalResults(a, b);
}

// --- The Viterbi simulator behind a PipedSearchObserver -------------

/** Both hash organisations at both ends of the pruning range. */
std::vector<SystemConfig>
pipedConfigs(const ExperimentSetup &setup)
{
    std::vector<SystemConfig> configs;
    for (SearchMode mode : {SearchMode::Baseline, SearchMode::NBestHash})
        for (PruneLevel level : {PruneLevel::None, PruneLevel::P90})
            configs.push_back(setup.configFor(mode, level));
    return configs;
}

/** Decode `utt` into a fresh simulator, attached to the decode
 *  directly (the reference) or behind a pipe on `helpers`. */
ViterbiSimResult
simulate(AsrSystem &sys, const Utterance &utt, const SystemConfig &config,
         bool piped, ThreadPool *helpers = nullptr)
{
    const auto scores = sys.scoresFor(utt, config.prune);
    ViterbiAcceleratorSim accel(sys.viterbiConfigFor(config), sys.fst());
    auto selector = sys.makeSelector(config);
    const ViterbiDecoder decoder(sys.fst(), DecoderConfig{config.beam});
    if (!piped) {
        decoder.decode(*scores, *selector, &accel);
    } else {
        PipedSearchObserver pipe(accel, helpers);
        decoder.decode(*scores, *selector, &pipe);
        pipe.finish();
    }
    return accel.result();
}

void
expectSameSim(const ViterbiSimResult &want, const ViterbiSimResult &got)
{
    EXPECT_EQ(want.cycles, got.cycles);
    EXPECT_EQ(want.seconds, got.seconds);
    EXPECT_EQ(want.frames, got.frames);
    EXPECT_EQ(want.missLines, got.missLines);
    EXPECT_EQ(want.overflowLines, got.overflowLines);
    const std::pair<CacheStats, CacheStats> caches[] = {
        {want.stateCache, got.stateCache},
        {want.arcCache, got.arcCache},
        {want.latticeCache, got.latticeCache}};
    for (const auto &[w, g] : caches) {
        EXPECT_EQ(w.hits, g.hits);
        EXPECT_EQ(w.misses, g.misses);
    }
    EXPECT_EQ(want.energy.dynamicJoules(), got.energy.dynamicJoules());
    EXPECT_EQ(want.energy.staticJoules(), got.energy.staticJoules());
}

/** What runTestSet must report for the Viterbi stage and publish to
 *  accel.viterbi.*, summed over reference simulations in input order. */
struct InlineTotals
{
    StageCost viterbi;
    std::uint64_t cycles = 0;
    std::uint64_t frames = 0;
    std::uint64_t missLines = 0;
    std::uint64_t overflowLines = 0;
    std::uint64_t stateMisses = 0;
    std::uint64_t arcMisses = 0;

    void
    add(const ViterbiSimResult &r, std::size_t score_frames,
        std::size_t classes)
    {
        // runUtterance charges the Viterbi stage for reading the shared
        // score buffer back from DRAM.
        const double score_bytes = static_cast<double>(score_frames) *
            static_cast<double>(classes) * 4.0;
        viterbi.add({r.seconds + score_bytes / EnergyModel::dramBandwidth(),
                     r.energy.totalJoules() +
                         score_bytes / 64.0 *
                             EnergyModel::dramLineEnergy()});
        cycles += r.cycles;
        frames += r.frames;
        missLines += r.missLines;
        overflowLines += r.overflowLines;
        stateMisses += r.stateCache.misses;
        arcMisses += r.arcCache.misses;
    }

    void
    expectPublished(const TestSetResult &r,
                    const telemetry::Snapshot &before,
                    const telemetry::Snapshot &after) const
    {
        EXPECT_EQ(viterbi.seconds, r.viterbi.seconds);
        EXPECT_EQ(viterbi.joules, r.viterbi.joules);
        const auto delta = [&](const char *name) {
            const auto *a = after.findCounter(name);
            const auto *b = before.findCounter(name);
            return (a ? a->value : 0) - (b ? b->value : 0);
        };
        EXPECT_EQ(cycles, delta("accel.viterbi.cycles"));
        EXPECT_EQ(frames, delta("accel.viterbi.frames"));
        EXPECT_EQ(missLines, delta("accel.viterbi.miss_lines"));
        EXPECT_EQ(overflowLines, delta("accel.viterbi.overflow_lines"));
        EXPECT_EQ(stateMisses, delta("accel.viterbi.state_cache_misses"));
        EXPECT_EQ(arcMisses, delta("accel.viterbi.arc_cache_misses"));
    }
};

/** Two copies of the test set under fresh ids, so that at 4 threads
 *  each worker decodes twice: some decodes get the system's helpers,
 *  the others replay their own batches. */
std::vector<Utterance>
twoPasses(const std::vector<Utterance> &test_set, std::uint64_t base)
{
    std::vector<Utterance> utts;
    for (int pass = 0; pass < 2; ++pass) {
        for (const Utterance &u : test_set) {
            utts.push_back(u);
            utts.back().id = base + utts.size();
        }
    }
    return utts;
}

TEST(PipedSimulation, MatchesInlineSimulatorBitForBit)
{
    auto &ctx = context();
    AsrSystem &sys = ctx.system;
    auto &reg = telemetry::MetricRegistry::global();
    ThreadPool helpers(2);
    const std::vector<Utterance> utts = twoPasses(ctx.testSet, 7ull << 40);

    for (const SystemConfig &config : pipedConfigs(ctx.setup)) {
        SCOPED_TRACE(config.label());
        InlineTotals want;
        for (const Utterance &utt : utts) {
            const ViterbiSimResult ref = simulate(sys, utt, config, false);
            expectSameSim(ref, simulate(sys, utt, config, true, &helpers));
            expectSameSim(ref, simulate(sys, utt, config, true));
            want.add(ref, sys.scoresFor(utt, config.prune)->frameCount(),
                     ctx.corpus.classCount());
        }
        for (const std::size_t threads : {1u, 4u}) {
            SCOPED_TRACE(threads);
            const telemetry::Snapshot before = reg.snapshot();
            const TestSetResult r = sys.runTestSet(utts, config, threads);
            EXPECT_EQ(r.degraded, 0u);
            want.expectPublished(r, before, reg.snapshot());
        }
    }
}

/** Sink slow enough at each frame end that batches queue behind it. */
class SlowSink : public SearchObserver
{
  public:
    void
    onFrameEnd(const FrameActivity &) override
    {
        std::this_thread::sleep_for(std::chrono::microseconds(300));
        framesDone.fetch_add(1);
    }
    void onUtteranceEnd(const TraceStats &) override { ended = true; }

    std::atomic<std::size_t> framesDone{0};
    std::atomic<bool> ended{false};
};

/** Rides the decode thread after the pipe: how far the decode runs
 *  ahead of the sink, and an abort at frame `throwAt`. */
class LeadProbe : public SearchObserver
{
  public:
    LeadProbe(const SlowSink &sink, std::size_t throw_at)
        : sink_(sink), throwAt_(throw_at)
    {}

    void
    onFrameStart(std::size_t t) override
    {
        maxLead = std::max(maxLead, t - sink_.framesDone.load());
        if (t == throwAt_)
            throw FaultError("decoder.decode", FaultKind::Timeout, t);
    }

    std::size_t maxLead = 0;

  private:
    const SlowSink &sink_;
    std::size_t throwAt_;
};

/** The longest test utterance (it spans many batches). */
const Utterance &
longestUtterance(ExperimentContext &ctx, PruneLevel level)
{
    return *std::max_element(
        ctx.testSet.begin(), ctx.testSet.end(),
        [&](const Utterance &a, const Utterance &b) {
            return ctx.system.scoresFor(a, level)->frameCount() <
                ctx.system.scoresFor(b, level)->frameCount();
        });
}

TEST(PipedSimulation, BoundsTheBatchesInFlight)
{
    auto &ctx = context();
    const auto config =
        ctx.setup.configFor(SearchMode::Baseline, PruneLevel::P90);
    const Utterance &utt = longestUtterance(ctx, config.prune);
    const auto scores = ctx.system.scoresFor(utt, config.prune);
    const ViterbiDecoder decoder(ctx.fst, DecoderConfig{config.beam});
    constexpr std::size_t kBatchFrames = PipedSearchObserver::kBatchFrames;
    constexpr std::size_t kInFlight =
        PipedSearchObserver::kBatches * kBatchFrames;
    ASSERT_GT(scores->frameCount(), 2 * kInFlight);

    const auto lead = [&](ThreadPool *helpers) {
        SlowSink sink;
        PipedSearchObserver pipe(sink, helpers);
        LeadProbe probe(sink, ~std::size_t{0});
        TeeSearchObserver tee(&pipe, &probe);
        auto selector = ctx.system.makeSelector(config);
        const DecodeResult result =
            decoder.decode(*scores, *selector, &tee);
        pipe.finish();
        EXPECT_EQ(sink.framesDone.load(), result.frames.size());
        EXPECT_TRUE(sink.ended.load());
        return probe.maxLead;
    };

    // With a helper the decode runs ahead of the slow sink by more
    // than one batch, but never by the frames of all its batches.
    ThreadPool helpers(2);
    const std::size_t ahead = lead(&helpers);
    EXPECT_GE(ahead, kBatchFrames);
    EXPECT_LT(ahead, kInFlight);
    // Without one each batch is replayed as it is published.
    EXPECT_LT(lead(nullptr), kBatchFrames);
}

TEST(PipedSimulation, AbortedDecodeLeavesTheNextOneExact)
{
    auto &ctx = context();
    AsrSystem &sys = ctx.system;

    // Aborted with three batches published behind a slow sink: the
    // pipe's destructor waits for all three and drops the fourth, so
    // the sink can go right after it.
    const auto config =
        ctx.setup.configFor(SearchMode::NBestHash, PruneLevel::P90);
    const Utterance &longest = longestUtterance(ctx, config.prune);
    constexpr std::size_t kPublished =
        PipedSearchObserver::kBatches * PipedSearchObserver::kBatchFrames;
    ThreadPool helpers(2);
    {
        auto sink = std::make_unique<SlowSink>();
        {
            PipedSearchObserver pipe(*sink, &helpers);
            LeadProbe probe(*sink, kPublished + 1);
            TeeSearchObserver tee(&pipe, &probe);
            auto selector = sys.makeSelector(config);
            const ViterbiDecoder decoder(ctx.fst,
                                         DecoderConfig{config.beam});
            EXPECT_THROW(decoder.decode(*sys.scoresFor(longest,
                                                       config.prune),
                                        *selector, &tee),
                         FaultError);
        }
        EXPECT_EQ(sink->framesDone.load(), kPublished);
        EXPECT_FALSE(sink->ended.load());
    }
    expectSameSim(simulate(sys, longest, config, false),
                  simulate(sys, longest, config, true, &helpers));

    // Through runTestSet on one thread: an injected decoder.decode
    // timeout aborts the first utterance, and every utterance after it
    // on the same thread matches the reference.
    auto &reg = telemetry::MetricRegistry::global();
    for (const SystemConfig &cfg : pipedConfigs(ctx.setup)) {
        SCOPED_TRACE(cfg.label());
        const std::vector<Utterance> utts =
            twoPasses(ctx.testSet, 9ull << 40);
        InlineTotals want;
        for (std::size_t i = 1; i < utts.size(); ++i) {
            want.add(simulate(sys, utts[i], cfg, false),
                     sys.scoresFor(utts[i], cfg.prune)->frameCount(),
                     ctx.corpus.classCount());
        }
        FaultRule rule;
        rule.probe = "decoder.decode";
        rule.kind = FaultKind::Timeout;
        rule.keys = {utts[0].id};
        FaultPlan plan;
        plan.rules.push_back(rule);
        ScopedFaultPlan scoped(std::move(plan));
        const telemetry::Snapshot before = reg.snapshot();
        const TestSetResult r = sys.runTestSet(utts, cfg, 1);
        EXPECT_EQ(r.degraded, 1u);
        EXPECT_NE(r.outcomes[0].find("timeout"), std::string::npos);
        want.expectPublished(r, before, reg.snapshot());
    }
}

TEST(PipedSimulation, SinkExceptionReachesFinish)
{
    // The replay may run on a pool worker, where an escaping exception
    // would end the program; the pipe forwards it to finish() instead,
    // drops the hooks after it, and the decode itself completes.
    struct ThrowingSink : SearchObserver
    {
        void
        onFrameEnd(const FrameActivity &) override
        {
            if (++frames == 10)
                throw std::runtime_error("sink failed");
        }
        std::size_t frames = 0;
    };
    auto &ctx = context();
    const auto config =
        ctx.setup.configFor(SearchMode::Baseline, PruneLevel::P90);
    const Utterance &utt = longestUtterance(ctx, config.prune);
    const ViterbiDecoder decoder(ctx.fst, DecoderConfig{config.beam});
    ThreadPool helpers(2);
    for (ThreadPool *pool : {&helpers, static_cast<ThreadPool *>(nullptr)}) {
        ThrowingSink sink;
        PipedSearchObserver pipe(sink, pool);
        auto selector = ctx.system.makeSelector(config);
        const DecodeResult result = decoder.decode(
            *ctx.system.scoresFor(utt, config.prune), *selector, &pipe);
        EXPECT_GT(result.frames.size(), 10u);
        EXPECT_THROW(pipe.finish(), std::runtime_error);
        EXPECT_EQ(sink.frames, 10u);
    }
}

// --- Scoring beside the search (ScoreStream on the helper pool) --------

/** Bitwise equality of two complete score matrices. */
void
expectSameMatrix(const AcousticScores &got, const AcousticScores &want)
{
    ASSERT_EQ(got.frameCount(), want.frameCount());
    ASSERT_EQ(got.classCount(), want.classCount());
    for (std::size_t t = 0; t < want.frameCount(); ++t) {
        ASSERT_EQ(std::memcmp(got.row(t), want.row(t),
                              want.classCount() * sizeof(float)),
                  0)
            << "frame " << t;
    }
    EXPECT_EQ(got.meanConfidence(), want.meanConfidence());
}

/** Deterministic dnn.infer.* growth since `before`: counter values
 *  and histogram bucket counts. */
std::string
inferGrowth(const telemetry::Snapshot &before)
{
    const telemetry::Snapshot delta = telemetry::MetricRegistry::global()
                                          .snapshot()
                                          .deltaSince(before)
                                          .deterministic();
    std::string out;
    for (const auto &c : delta.counters) {
        if (c.name.rfind("dnn.infer.", 0) == 0)
            out += c.name + "=" + std::to_string(c.value) + "\n";
    }
    for (const auto &h : delta.histograms) {
        if (h.name.rfind("dnn.infer.", 0) != 0)
            continue;
        out += h.name + "=" + std::to_string(h.underflow) + "," +
            std::to_string(h.overflow);
        for (const std::uint64_t b : h.buckets)
            out += "," + std::to_string(b);
        out += "\n";
    }
    return out;
}

/** An utterance id not used before in this process: the scores of an
 *  utterance under it are computed cold, also under --gtest_repeat. */
std::uint64_t
freshId()
{
    static std::atomic<std::uint64_t> next{11ull << 40};
    return next++;
}

/** Growth of one counter since `before` (0 when unregistered). */
std::uint64_t
counterGrowth(const telemetry::Snapshot &before, const char *name)
{
    const telemetry::Snapshot after =
        telemetry::MetricRegistry::global().snapshot();
    const auto *a = after.findCounter(name);
    const auto *b = before.findCounter(name);
    return (a ? a->value : 0) - (b ? b->value : 0);
}

TEST(PipelinedScoring, PooledPrefetchMatchesScoresFor)
{
    // Windows fall at multiples of the GEMM batch whoever scores them,
    // so however the consumer steps through the utterance, with or
    // without helper workers, the matrix and the dnn.infer.* counts
    // are scoresFor's.
    auto &ctx = context();
    AsrSystem &sys = ctx.system;
    auto &reg = telemetry::MetricRegistry::global();
    const PruneLevel level = PruneLevel::P90;
    const std::size_t batch = sys.engineFor(level).batchFrames();
    for (const Utterance &base : ctx.testSet) {
        Utterance utt = base;
        utt.id = freshId();
        const telemetry::Snapshot before = reg.snapshot();
        const auto want = sys.scoresFor(utt, level);
        const std::string want_infer = inferGrowth(before);
        ASSERT_NE(want_infer.find("dnn.infer.frames="), std::string::npos);
        for (const std::size_t workers : {0u, 2u}) {
            ThreadPool helpers(workers);
            for (const std::size_t step : {1u, 7u, 32u, 0u}) {
                SCOPED_TRACE(std::to_string(workers) + " workers, step " +
                             std::to_string(step));
                utt.id = freshId();
                const telemetry::Snapshot start = reg.snapshot();
                auto stream = sys.openScoreStream(utt, level);
                ASSERT_FALSE(stream->complete());
                stream->startPrefetch(batch, &helpers);
                const std::size_t frames = stream->frameCount();
                const std::size_t chunk = step ? step : frames;
                for (std::size_t end = 0; end < frames;) {
                    end = std::min(frames, end + chunk);
                    stream->ensureScored(end);
                }
                const auto got = stream->finish();
                expectSameMatrix(*got, *want);
                EXPECT_EQ(inferGrowth(start), want_infer);
            }
        }
    }
}

TEST(PipelinedScoring, ConsumerScoresWhatNoHelperIsScoring)
{
    // Every helper worker is held by a task blocked on a latch, so the
    // streams' prefetch tasks stay queued: the consumer scores every
    // window itself, and a stream can go before its task ever runs.
    auto &ctx = context();
    AsrSystem &sys = ctx.system;
    const PruneLevel level = PruneLevel::P90;
    const std::size_t batch = sys.engineFor(level).batchFrames();
    Utterance utt = longestUtterance(ctx, level);
    const auto want = sys.scoresFor(utt, level);
    ASSERT_GT(want->frameCount(), 2 * batch);

    std::mutex mutex;
    std::condition_variable cv;
    std::size_t holding = 0;
    bool open = false;
    bool done = false;
    bool timed_out = false;
    ThreadPool helpers(2);
    for (std::size_t i = 0; i < helpers.threadCount(); ++i) {
        helpers.submit([&] {
            std::unique_lock<std::mutex> lock(mutex);
            ++holding;
            cv.notify_all();
            cv.wait(lock, [&] { return open; });
        });
    }
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return holding == helpers.threadCount(); });
    }
    // Opens the latch if the consumer hangs on a queued task, so a
    // failing run ends instead of deadlocking.
    std::thread guard([&] {
        std::unique_lock<std::mutex> lock(mutex);
        if (!cv.wait_for(lock, std::chrono::seconds(60),
                         [&] { return done; })) {
            timed_out = true;
            open = true;
            cv.notify_all();
        }
    });

    utt.id = freshId();
    auto stream = sys.openScoreStream(utt, level);
    ASSERT_FALSE(stream->complete());
    stream->startPrefetch(batch, &helpers);
    stream->ensureScored(stream->frameCount() / 2);
    expectSameMatrix(*stream->finish(), *want);

    Utterance other = utt;
    other.id = freshId();
    auto dropped = sys.openScoreStream(other, level);
    dropped->startPrefetch(batch, &helpers);
    dropped->ensureScored(1);
    dropped.reset();

    {
        std::lock_guard<std::mutex> lock(mutex);
        done = true;
        EXPECT_FALSE(timed_out);
        open = true;
        cv.notify_all();
    }
    guard.join();
}

TEST(PipelinedScoring, PoolMayStopRightAfterFinish)
{
    // One-frame windows keep a helper task queueing the next one while
    // the consumer scores too; once finish() returns no task may still
    // be about to queue another, so the pool can stop at once.
    auto &ctx = context();
    const PruneLevel level = PruneLevel::P90;
    Utterance utt = longestUtterance(ctx, level);
    utt.id = 0; // uncacheable: every stream scores cold
    for (int i = 0; i < 200; ++i) {
        ThreadPool helpers(2);
        auto stream = ctx.system.openScoreStream(utt, level);
        stream->startPrefetch(1, &helpers);
        stream->finish();
    }
}

TEST(PipelinedScoring, AbandonedDecodeStillCachesItsScores)
{
    // An injected decoder.decode fault abandons the decode, but the
    // utterance is scored and cached whole, as when scoring finished
    // before the decode began: the next scoresFor is a hit.
    auto &ctx = context();
    AsrSystem &sys = ctx.system;
    auto &reg = telemetry::MetricRegistry::global();
    const auto config =
        ctx.setup.configFor(SearchMode::NBestHash, PruneLevel::P90);
    for (const FaultKind kind : {FaultKind::Timeout, FaultKind::AllocFail}) {
        SCOPED_TRACE(faultKindName(kind));
        Utterance utt = longestUtterance(ctx, config.prune);
        utt.id = freshId();
        {
            FaultRule rule;
            rule.probe = "decoder.decode";
            rule.kind = kind;
            rule.keys = {utt.id};
            FaultPlan plan;
            plan.rules.push_back(rule);
            ScopedFaultPlan scoped(std::move(plan));
            EXPECT_THROW(sys.runUtterance(utt, config), FaultError);
        }
        const telemetry::Snapshot before = reg.snapshot();
        const auto cached = sys.scoresFor(utt, config.prune);
        EXPECT_EQ(counterGrowth(before, "dnn.cache.hit"), 1u);
        EXPECT_EQ(counterGrowth(before, "dnn.infer.frames"), 0u);
        Utterance fresh = utt;
        fresh.id = freshId();
        expectSameMatrix(*cached, *sys.scoresFor(fresh, config.prune));
    }
}

TEST(PipelinedScoring, DeadSearchMatchesBatchDecode)
{
    // On a graph whose cheap branch is a dead end, a small beam kills
    // the search at frame 1. Through runUtterance's stream it reports
    // the batch kernel's words, cost and counts, but the stream stops
    // appending frames where the search died, while the batch kernel
    // keeps one entry per frame.
    auto &ctx = context();
    Wfst::Builder builder;
    const StateId start = builder.addState();
    const StateId dead_end = builder.addState();
    const StateId alive = builder.addState();
    builder.setStart(start);
    builder.addArc(start, Arc{0, 1, 0.0f, dead_end});
    builder.addArc(start, Arc{0, 2, 5.0f, alive});
    builder.addArc(alive, Arc{1, kEpsilon, 0.0f, alive});
    builder.setFinal(alive, 0.0f);
    const Wfst trap = std::move(builder).build();
    AsrSystem sys(ctx.corpus, trap, ctx.zoo, ctx.setup.platform);
    auto config = ctx.setup.configFor(SearchMode::Baseline, PruneLevel::P90);
    config.beam = 2.0f;

    const ViterbiDecoder decoder(trap, DecoderConfig{config.beam});
    for (const Utterance &utt : ctx.testSet) {
        const auto scores = sys.scoresFor(utt, config.prune);
        auto selector = sys.makeSelector(config);
        const DecodeResult want = decoder.decode(*scores, *selector);
        ASSERT_TRUE(std::isinf(want.totalCost));
        ASSERT_EQ(want.frames.size(), scores->frameCount());

        const UtteranceRun run = sys.runUtterance(utt, config);
        EXPECT_EQ(run.decode.words, want.words);
        EXPECT_EQ(run.decode.totalCost, want.totalCost);
        EXPECT_EQ(run.decode.reachedFinal, want.reachedFinal);
        EXPECT_EQ(run.decode.totalSurvivors(), want.totalSurvivors());
        EXPECT_EQ(run.decode.totalGenerated(), want.totalGenerated());
        EXPECT_EQ(run.frames, scores->frameCount());
        ASSERT_EQ(run.decode.frames.size(), 2u);
        EXPECT_EQ(run.decode.frames[1].generated, 0u);
        EXPECT_EQ(run.decode.frames[1].survivors, 0u);
    }
}

TEST(PaperConfigs, TableIIAndIIIVerbatim)
{
    const DnnAccelConfig dnn = paperDnnAccelConfig();
    EXPECT_EQ(dnn.tiles, 4u);
    EXPECT_EQ(dnn.multipliers, 128u);
    EXPECT_EQ(dnn.weightsBufferBytes, 18ull * 1024 * 1024);
    EXPECT_EQ(dnn.ioBufferBytes, 32u * 1024);
    EXPECT_EQ(dnn.ioBanks, 64u);
    EXPECT_EQ(dnn.ioReadPorts, 2u);
    EXPECT_DOUBLE_EQ(dnn.frequencyHz, 800e6);

    const ViterbiAccelConfig vit = paperViterbiAccelConfig();
    EXPECT_EQ(vit.stateCache.sizeBytes, 256u * 1024);
    EXPECT_EQ(vit.stateCache.ways, 4u);
    EXPECT_EQ(vit.arcCache.sizeBytes, 768u * 1024);
    EXPECT_EQ(vit.arcCache.ways, 8u);
    EXPECT_EQ(vit.latticeCache.sizeBytes, 128u * 1024);
    EXPECT_EQ(vit.likelihoodBufferBytes, 64u * 1024);
    EXPECT_DOUBLE_EQ(vit.frequencyHz, 500e6);
}

} // namespace
} // namespace darkside

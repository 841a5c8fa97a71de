/**
 * @file
 * Checkpointed-run and crash-recovery suite (docs/STORE.md): proves
 * that a runTestSet journaled through RunCheckpoint reproduces the
 * plain run bit-identically at any thread count, whether units are
 * computed, replayed, missing, corrupt or stale; and that a torn model
 * cache write (the store.torn_write crash model) is quarantined on the
 * next load and recovered by retraining to the never-cached baseline,
 * byte for byte.
 *
 * Registered as a heavy test: all cases share one statically trained
 * miniature experiment context.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "mini_setup.hh"
#include "store/checkpoint.hh"
#include "telemetry/metrics.hh"
#include "telemetry/snapshot.hh"

namespace darkside {
namespace {

namespace fs = std::filesystem;

ExperimentContext &
context()
{
    static ExperimentContext ctx(miniSetup());
    return ctx;
}

/**
 * Evaluation set spanning several checkpoint units: 20 utterances at
 * batch size kCheckpointBatch = 8 make 3 units (8 + 8 + 4).
 */
const std::vector<Utterance> &
bigTestSet()
{
    static const std::vector<Utterance> utts =
        context().corpus.sampleUtterances(20, 4242);
    return utts;
}

SystemConfig
baselineConfig()
{
    return context().setup.configFor(SearchMode::Baseline,
                                     PruneLevel::None);
}

std::string
freshRoot(const std::string &tag)
{
    const std::string root = testing::TempDir() + "/resume_test_" + tag;
    fs::remove_all(root);
    return root;
}

std::uint64_t
counterValue(const std::string &name)
{
    const auto snap = telemetry::MetricRegistry::global().snapshot();
    const auto *c = snap.findCounter(name);
    return c ? c->value : 0;
}

/** Journal unit id of a batch, mirroring AsrSystem::runTestSet. */
std::string
unitId(const SystemConfig &config, std::size_t utt_count,
       std::size_t batch)
{
    return config.label() + "_n" + std::to_string(utt_count) + "_b" +
        std::to_string(batch);
}

/**
 * The resume contract: every aggregate of a checkpointed (or resumed)
 * run equals the plain run bit for bit — including float sums, whose
 * accumulation order the input-order merge fixes.
 */
void
expectResultsIdentical(const TestSetResult &a, const TestSetResult &b)
{
    EXPECT_EQ(a.wer.substitutions, b.wer.substitutions);
    EXPECT_EQ(a.wer.insertions, b.wer.insertions);
    EXPECT_EQ(a.wer.deletions, b.wer.deletions);
    EXPECT_EQ(a.wer.referenceLength, b.wer.referenceLength);
    EXPECT_EQ(a.frames, b.frames);
    EXPECT_EQ(a.survivors, b.survivors);
    EXPECT_EQ(a.generated, b.generated);
    EXPECT_EQ(a.degraded, b.degraded);
    EXPECT_EQ(a.outcomes, b.outcomes);
    EXPECT_DOUBLE_EQ(a.meanConfidence, b.meanConfidence);
    EXPECT_DOUBLE_EQ(a.dnn.seconds, b.dnn.seconds);
    EXPECT_DOUBLE_EQ(a.dnn.joules, b.dnn.joules);
    EXPECT_DOUBLE_EQ(a.viterbi.seconds, b.viterbi.seconds);
    EXPECT_DOUBLE_EQ(a.viterbi.joules, b.viterbi.joules);
}

// ---------------------------------------------------------------------
// Checkpointed == plain, at every thread count.
// ---------------------------------------------------------------------

TEST(ResumeRun, CheckpointedRunMatchesPlainRunAtAnyThreadCount)
{
    const std::vector<Utterance> &utts = bigTestSet();
    const SystemConfig config = baselineConfig();
    const TestSetResult plain =
        context().system.runTestSet(utts, config);

    for (const std::size_t threads : {1u, 2u, 4u}) {
        RunCheckpoint journal(
            freshRoot("fresh_t" + std::to_string(threads)));

        // First pass computes and commits every unit.
        const std::uint64_t resumed_before =
            counterValue("store.resumed_units");
        const TestSetResult first = context().system.runTestSet(
            utts, config, threads, &journal);
        expectResultsIdentical(plain, first);
        EXPECT_EQ(counterValue("store.resumed_units"), resumed_before);
        for (std::size_t b = 0; b < 3; ++b) {
            EXPECT_TRUE(
                journal.hasUnit(unitId(config, utts.size(), b)))
                << b;
        }

        // Second pass over the complete journal replays all 3 units —
        // at a different worker count than the one that computed them.
        const TestSetResult resumed = context().system.runTestSet(
            utts, config, threads == 1 ? 4 : 1, &journal);
        expectResultsIdentical(plain, resumed);
        EXPECT_EQ(counterValue("store.resumed_units"),
                  resumed_before + 3);
    }
}

TEST(ResumeRun, ReplayedTelemetryDeltaMatchesComputedDelta)
{
    const std::vector<Utterance> &utts = bigTestSet();
    const SystemConfig config = baselineConfig();
    auto &reg = telemetry::MetricRegistry::global();
    RunCheckpoint journal(freshRoot("delta"));

    // The same ignore set the CI resume-acceptance diff uses:
    // store./fault. describe the journaling itself, dnn.infer.* the
    // state of the in-memory score cache — neither is part of the
    // run's behavioural output.
    const std::vector<std::string> ignore = {"store.", "fault.",
                                             "dnn.infer."};

    const auto before_compute = reg.snapshot();
    context().system.runTestSet(utts, config, 2, &journal);
    const auto computed = reg.snapshot()
                              .deltaSince(before_compute)
                              .deterministic()
                              .withoutPrefixes(ignore);

    const auto before_replay = reg.snapshot();
    context().system.runTestSet(utts, config, 4, &journal);
    const auto replayed = reg.snapshot()
                              .deltaSince(before_replay)
                              .deterministic()
                              .withoutPrefixes(ignore);

    // Byte-equal JSON == every counter and histogram bucket equal.
    EXPECT_EQ(computed.toJson(), replayed.toJson());
}

// ---------------------------------------------------------------------
// Damaged journals: missing, corrupt and stale units.
// ---------------------------------------------------------------------

TEST(ResumeRun, PartialJournalRecomputesOnlyTheMissingUnits)
{
    const std::vector<Utterance> &utts = bigTestSet();
    const SystemConfig config = baselineConfig();
    const TestSetResult plain =
        context().system.runTestSet(utts, config);

    RunCheckpoint journal(freshRoot("partial"));
    context().system.runTestSet(utts, config, 2, &journal);

    // Model a kill that lost one unit and tore another: unit 1 is
    // gone, unit 2 is garbage on disk.
    ASSERT_TRUE(fs::remove(journal.store().pathOf(
        RunCheckpoint::unitFileName(unitId(config, utts.size(), 1)))));
    {
        std::ofstream os(
            journal.store().pathOf(RunCheckpoint::unitFileName(
                unitId(config, utts.size(), 2))),
            std::ios::binary | std::ios::trunc);
        os << "torn by a crash";
    }

    const std::uint64_t resumed_before =
        counterValue("store.resumed_units");
    const std::uint64_t quarantined_before =
        counterValue("store.quarantined");
    const TestSetResult resumed =
        context().system.runTestSet(utts, config, 4, &journal);
    expectResultsIdentical(plain, resumed);
    // Only intact unit 0 replays; the corrupt unit is quarantined —
    // preserved as evidence, recomputed like a missing one.
    EXPECT_EQ(counterValue("store.resumed_units"), resumed_before + 1);
    EXPECT_EQ(counterValue("store.quarantined"), quarantined_before + 1);
    EXPECT_FALSE(fs::is_empty(journal.store().root() + "/" +
                              ArtifactStore::kQuarantineDir));

    // The recomputation re-committed both units: the next resume
    // replays all three.
    const std::uint64_t resumed_mid =
        counterValue("store.resumed_units");
    const TestSetResult again =
        context().system.runTestSet(utts, config, 1, &journal);
    expectResultsIdentical(plain, again);
    EXPECT_EQ(counterValue("store.resumed_units"), resumed_mid + 3);
}

TEST(ResumeRun, StaleUnitsFromDifferentInputsAreRecomputed)
{
    const SystemConfig config = baselineConfig();
    const std::vector<Utterance> &utts = bigTestSet();
    // Same size, same config, different utterances: unit ids collide
    // but the inputs key embedded in each unit does not.
    const std::vector<Utterance> other =
        context().corpus.sampleUtterances(20, 999);
    const TestSetResult plain_other =
        context().system.runTestSet(other, config);

    RunCheckpoint journal(freshRoot("stale"));
    context().system.runTestSet(utts, config, 2, &journal);

    const TestSetResult resumed =
        context().system.runTestSet(other, config, 2, &journal);
    expectResultsIdentical(plain_other, resumed);
    // Every unit frame-verified but failed the inputs-key check and
    // was recomputed — never replayed into the aggregates of the
    // wrong inputs.

    // The journal now belongs to `other`: a further resume replays.
    const std::uint64_t resumed_mid =
        counterValue("store.resumed_units");
    const TestSetResult again =
        context().system.runTestSet(other, config, 1, &journal);
    expectResultsIdentical(plain_other, again);
    EXPECT_EQ(counterValue("store.resumed_units"), resumed_mid + 3);
}

TEST(ResumeRun, UnitWhoseDeltaDisagreesWithTheRegistryIsRecomputed)
{
    const std::vector<Utterance> &utts = bigTestSet();
    const SystemConfig config = baselineConfig();
    const TestSetResult plain =
        context().system.runTestSet(utts, config);

    RunCheckpoint journal(freshRoot("disagreeing"));
    context().system.runTestSet(utts, config, 2, &journal);

    // Unit 1 as a build registering search.frames in another unit
    // would have written it: a same-length edit inside its delta,
    // recommitted through the store, so its frame and CRC verify and
    // its inputs key matches.
    const std::string name =
        RunCheckpoint::unitFileName(unitId(config, utts.size(), 1));
    auto payload = journal.store().read(name, RunCheckpoint::kUnitKind);
    ASSERT_TRUE(payload.isOk()) << payload.message();
    std::string edited = payload.value();
    const std::string unit = "\"name\": \"search.frames\", \"unit\": ";
    const auto at = edited.find(unit + "\"frames\"");
    ASSERT_NE(at, std::string::npos);
    edited.replace(at, unit.size() + 8, unit + "\"framez\"");
    ASSERT_TRUE(journal.store()
                    .write(name, RunCheckpoint::kUnitKind, edited)
                    .isOk());

    const std::uint64_t resumed_before =
        counterValue("store.resumed_units");
    const TestSetResult resumed =
        context().system.runTestSet(utts, config, 4, &journal);
    expectResultsIdentical(plain, resumed);
    EXPECT_EQ(counterValue("store.resumed_units"), resumed_before + 2);

    // The recomputed unit was re-committed: the next resume replays
    // all three.
    const std::uint64_t resumed_mid =
        counterValue("store.resumed_units");
    expectResultsIdentical(
        plain, context().system.runTestSet(utts, config, 1, &journal));
    EXPECT_EQ(counterValue("store.resumed_units"), resumed_mid + 3);
}

// ---------------------------------------------------------------------
// Crash recovery of the model-zoo cache (store.torn_write mid-save).
// ---------------------------------------------------------------------

TEST(ResumeRun, TornModelCacheWriteIsQuarantinedAndRetrainedToBaseline)
{
    ModelZooConfig config = context().setup.zoo;
    config.cacheDir = freshRoot("zoo_torn");

    // Every cache commit during this construction is torn mid-save:
    // the crash model where the disk acknowledged a partial frame.
    {
        FaultRule rule;
        rule.probe = "store.torn_write";
        rule.kind = FaultKind::IoError;
        FaultPlan plan;
        plan.rules.push_back(rule);
        ScopedFaultPlan scoped(std::move(plan));
        ModelZoo first(context().corpus, config);
    }

    // The next construction must never trust the partial artifacts:
    // each one fails CRC verification, is quarantined, and the zoo
    // falls back to (deterministic, seeded) training.
    const std::uint64_t quarantined_before =
        counterValue("store.quarantined");
    ModelZoo recovered(context().corpus, config);
    EXPECT_GE(counterValue("store.quarantined"), quarantined_before + 4);
    EXPECT_TRUE(fs::exists(config.cacheDir + "/" +
                           ArtifactStore::kQuarantineDir));

    // Recovery is exact: byte-identical models to the never-cached
    // baseline zoo, for the dense and every pruned variant.
    for (const PruneLevel level :
         {PruneLevel::None, PruneLevel::P70, PruneLevel::P80,
          PruneLevel::P90}) {
        EXPECT_EQ(recovered.model(level).serialize(),
                  context().zoo.model(level).serialize())
            << pruneLevelName(level);
    }

    // The fallback re-cached clean artifacts: a third construction
    // loads them verbatim.
    ModelZoo reloaded(context().corpus, config);
    EXPECT_EQ(reloaded.model(PruneLevel::P90).serialize(),
              context().zoo.model(PruneLevel::P90).serialize());

    // And the behavioural outputs over the recovered models match the
    // baseline system's exactly (the golden contract: a crash plus
    // recovery is invisible downstream).
    AsrSystem system(context().corpus, context().fst, recovered,
                     context().setup.platform);
    const SystemConfig run_config = baselineConfig();
    const TestSetResult baseline = context().system.runTestSet(
        context().testSet, run_config);
    const TestSetResult after_recovery =
        system.runTestSet(context().testSet, run_config);
    expectResultsIdentical(baseline, after_recovery);
}

} // namespace
} // namespace darkside

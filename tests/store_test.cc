/**
 * @file
 * Unit suite for the durable artifact store (src/store, docs/STORE.md)
 * and its supporting pieces:
 *
 *   - CRC-32 against the published IEEE 802.3 check values;
 *   - the DSA1 frame contract: round-trip, every corruption class
 *     quarantined (never deleted, never re-read), kind mismatch and
 *     future-version refusals WITHOUT quarantine;
 *   - the three store fault probes (torn_write / fsync_fail /
 *     rename_fail) and the store.* counters they drive;
 *   - the run journal on top of the store (envelope round trip, key
 *     and record refusals, foreign kinds), including a unit that
 *     replays before any inference has registered its metrics;
 *   - telemetry snapshot JSON round-trip, deltaSince and
 *     MetricRegistry::apply (the unit-replay machinery);
 *   - Mlp serialize/deserialize and the trySave error paths;
 *   - AcousticScores bit-exact serialize round-trip.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "decoder/acoustic.hh"
#include "dnn/mlp.hh"
#include "fault/fault.hh"
#include "mini_setup.hh"
#include "store/artifact_store.hh"
#include "store/checkpoint.hh"
#include "telemetry/metrics.hh"
#include "telemetry/snapshot.hh"
#include "util/crc32.hh"

namespace darkside {
namespace {

namespace fs = std::filesystem;

std::uint64_t
counterValue(const std::string &name)
{
    const auto snap = telemetry::MetricRegistry::global().snapshot();
    const auto *c = snap.findCounter(name);
    return c ? c->value : 0;
}

/** Fresh store root under the test temp dir. */
std::string
freshRoot(const std::string &tag)
{
    const std::string root = testing::TempDir() + "/store_test_" + tag;
    fs::remove_all(root);
    return root;
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    return std::string((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
}

void
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(os.good()) << path;
}

/** Files (not directories) under `dir`, recursively. */
std::vector<std::string>
filesUnder(const std::string &dir)
{
    std::vector<std::string> files;
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator(dir, ec);
         !ec && it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_regular_file())
            files.push_back(it->path().string());
    }
    return files;
}

/** Plan firing `kind` on `probe` for one artifact name's key. */
FaultPlan
storeProbePlan(const std::string &probe, const std::string &name)
{
    FaultRule rule;
    rule.probe = probe;
    rule.kind = FaultKind::IoError;
    rule.keys = {faultKey(name)};
    FaultPlan plan;
    plan.rules.push_back(std::move(rule));
    return plan;
}

/** A payload with embedded NULs and every byte value. */
std::string
binaryPayload()
{
    std::string payload = "payload\0with\0nuls";
    for (int i = 0; i < 256; ++i)
        payload += static_cast<char>(i);
    return payload;
}

// ---------------------------------------------------------------------
// CRC-32.
// ---------------------------------------------------------------------

TEST(Crc32, MatchesPublishedCheckValues)
{
    // The standard check value of the IEEE 802.3 polynomial.
    EXPECT_EQ(crc32(std::string("123456789")), 0xcbf43926u);
    EXPECT_EQ(crc32(std::string("")), 0x00000000u);
    EXPECT_EQ(crc32(std::string("The quick brown fox jumps over the "
                                "lazy dog")),
              0x414fa339u);
}

TEST(Crc32, IncrementalEqualsOneShot)
{
    const std::string bytes = binaryPayload();
    Crc32 inc;
    // Deliberately uneven chunking, including empty updates.
    inc.update(bytes.data(), 1);
    inc.update(bytes.data() + 1, 0);
    inc.update(bytes.data() + 1, 7);
    inc.update(bytes.substr(8));
    EXPECT_EQ(inc.value(), crc32(bytes));
    EXPECT_NE(crc32(bytes), crc32(bytes.substr(1)));
}

// ---------------------------------------------------------------------
// Artifact round-trip and the commit protocol.
// ---------------------------------------------------------------------

TEST(ArtifactStore, RoundTripsBinaryPayloadsInSubdirectories)
{
    const ArtifactStore store(freshRoot("roundtrip"));
    const std::string payload = binaryPayload();
    const std::uint64_t writes_before = counterValue("store.writes");
    const std::uint64_t reads_before =
        counterValue("store.verified_reads");

    EXPECT_FALSE(store.exists("sub/dir/a.bin"));
    const Status written = store.write("sub/dir/a.bin", "test-kind",
                                       payload);
    ASSERT_TRUE(written.isOk()) << written.message();
    EXPECT_TRUE(store.exists("sub/dir/a.bin"));
    EXPECT_EQ(store.pathOf("sub/dir/a.bin"),
              store.root() + "/sub/dir/a.bin");

    auto back = store.read("sub/dir/a.bin", "test-kind");
    ASSERT_TRUE(back.isOk()) << back.message();
    EXPECT_EQ(back.value(), payload);
    EXPECT_EQ(counterValue("store.writes"), writes_before + 1);
    EXPECT_EQ(counterValue("store.verified_reads"), reads_before + 1);

    // Re-commit of the same name atomically replaces the content.
    ASSERT_TRUE(store.write("sub/dir/a.bin", "test-kind", "v2").isOk());
    auto replaced = store.read("sub/dir/a.bin", "test-kind");
    ASSERT_TRUE(replaced.isOk());
    EXPECT_EQ(replaced.value(), "v2");
}

TEST(ArtifactStore, EmptyPayloadRoundTrips)
{
    const ArtifactStore store(freshRoot("empty"));
    ASSERT_TRUE(store.write("e.bin", "test-kind", "").isOk());
    auto back = store.read("e.bin", "test-kind");
    ASSERT_TRUE(back.isOk()) << back.message();
    EXPECT_EQ(back.value(), "");
}

TEST(ArtifactStore, MissingArtifactIsAnErrorWithoutQuarantine)
{
    const ArtifactStore store(freshRoot("missing"));
    const std::uint64_t quarantined_before =
        counterValue("store.quarantined");
    auto result = store.read("nope.bin", "test-kind");
    ASSERT_FALSE(result.isOk());
    EXPECT_NE(result.message().find("no artifact"), std::string::npos);
    EXPECT_EQ(counterValue("store.quarantined"), quarantined_before);
}

// ---------------------------------------------------------------------
// Corruption classes -> quarantine.
// ---------------------------------------------------------------------

/**
 * Corrupt the committed artifact with `mutate`, then assert the read
 * fails with `reason`, the file lands in quarantine/ (so a second
 * read sees no artifact) and store.quarantined counts it.
 */
template <typename Mutate>
void
expectQuarantined(const std::string &tag, Mutate mutate,
                  const std::string &reason)
{
    const ArtifactStore store(freshRoot("q_" + tag));
    ASSERT_TRUE(
        store.write("victim.bin", "test-kind", binaryPayload()).isOk());
    std::string bytes = readFileBytes(store.pathOf("victim.bin"));
    mutate(bytes);
    writeFileBytes(store.pathOf("victim.bin"), bytes);

    const std::uint64_t quarantined_before =
        counterValue("store.quarantined");
    auto result = store.read("victim.bin", "test-kind");
    ASSERT_FALSE(result.isOk()) << tag;
    EXPECT_NE(result.message().find(reason), std::string::npos)
        << tag << ": " << result.message();
    EXPECT_NE(result.message().find("quarantined"), std::string::npos)
        << tag << ": " << result.message();
    EXPECT_EQ(counterValue("store.quarantined"), quarantined_before + 1)
        << tag;

    // Moved, not deleted: the evidence is in quarantine/ and the
    // original path never resolves again.
    EXPECT_FALSE(store.exists("victim.bin")) << tag;
    EXPECT_TRUE(fs::exists(store.root() + "/" +
                           ArtifactStore::kQuarantineDir +
                           "/victim.bin"))
        << tag;
    auto again = store.read("victim.bin", "test-kind");
    ASSERT_FALSE(again.isOk()) << tag;
    EXPECT_NE(again.message().find("no artifact"), std::string::npos)
        << tag;
}

TEST(ArtifactStoreQuarantine, TruncatedPayload)
{
    expectQuarantined(
        "trunc",
        [](std::string &bytes) { bytes.resize(bytes.size() - 5); },
        "is torn");
}

TEST(ArtifactStoreQuarantine, TruncatedHeader)
{
    expectQuarantined(
        "header", [](std::string &bytes) { bytes.resize(6); },
        "truncated header");
}

TEST(ArtifactStoreQuarantine, FlippedPayloadBitFailsCrc)
{
    expectQuarantined(
        "bitflip",
        [](std::string &bytes) { bytes[bytes.size() - 3] ^= 0x40; },
        "CRC-32");
}

TEST(ArtifactStoreQuarantine, ForeignBytesHaveNoFrame)
{
    expectQuarantined(
        "magic",
        [](std::string &bytes) { bytes = "not a DSA1 container"; },
        "no DSA1 frame");
}

TEST(ArtifactStoreQuarantine, OversizedKindTagIsCorrupt)
{
    expectQuarantined(
        "kindlen",
        [](std::string &bytes) {
            // kind_len lives right after magic + version.
            const std::uint32_t huge = 0xffffu;
            bytes.replace(8, 4,
                          reinterpret_cast<const char *>(&huge), 4);
        },
        "corrupt kind tag");
}

TEST(ArtifactStoreQuarantine, SecondVictimKeepsBothCopies)
{
    const ArtifactStore store(freshRoot("q_twice"));
    for (int round = 0; round < 2; ++round) {
        ASSERT_TRUE(
            store.write("sub/v.bin", "test-kind", "payload").isOk());
        writeFileBytes(store.pathOf("sub/v.bin"), "garbage");
        EXPECT_FALSE(store.read("sub/v.bin", "test-kind").isOk());
    }
    // Slash-flattened names, numbered so evidence is never overwritten.
    const std::string qdir =
        store.root() + "/" + ArtifactStore::kQuarantineDir;
    EXPECT_TRUE(fs::exists(qdir + "/sub_v.bin"));
    EXPECT_TRUE(fs::exists(qdir + "/sub_v.bin.1"));
}

// ---------------------------------------------------------------------
// Intact-but-unusable artifacts: refuse WITHOUT quarantine.
// ---------------------------------------------------------------------

TEST(ArtifactStore, KindMismatchRefusesWithoutQuarantine)
{
    const ArtifactStore store(freshRoot("kind"));
    ASSERT_TRUE(store.write("m.bin", "right-kind", "payload").isOk());
    const std::uint64_t quarantined_before =
        counterValue("store.quarantined");

    auto wrong = store.read("m.bin", "wrong-kind");
    ASSERT_FALSE(wrong.isOk());
    EXPECT_NE(wrong.message().find("holds kind 'right-kind'"),
              std::string::npos)
        << wrong.message();
    EXPECT_EQ(counterValue("store.quarantined"), quarantined_before);
    EXPECT_TRUE(store.exists("m.bin"));

    // The bytes were intact all along: the right caller still reads.
    auto right = store.read("m.bin", "right-kind");
    ASSERT_TRUE(right.isOk()) << right.message();
    EXPECT_EQ(right.value(), "payload");
}

TEST(ArtifactStore, FutureFormatVersionRefusesWithoutQuarantine)
{
    const ArtifactStore store(freshRoot("future"));
    ASSERT_TRUE(store.write("f.bin", "test-kind", "payload").isOk());
    std::string bytes = readFileBytes(store.pathOf("f.bin"));
    const std::uint32_t future = ArtifactStore::kFormatVersion + 1;
    bytes.replace(4, 4, reinterpret_cast<const char *>(&future), 4);
    writeFileBytes(store.pathOf("f.bin"), bytes);

    const std::uint64_t quarantined_before =
        counterValue("store.quarantined");
    auto result = store.read("f.bin", "test-kind");
    ASSERT_FALSE(result.isOk());
    EXPECT_NE(result.message().find("format version"),
              std::string::npos)
        << result.message();
    // Data from the future is not destroyed and not moved.
    EXPECT_EQ(counterValue("store.quarantined"), quarantined_before);
    EXPECT_TRUE(store.exists("f.bin"));
}

// ---------------------------------------------------------------------
// The store fault probes.
// ---------------------------------------------------------------------

TEST(StoreFaults, TornWriteCommitsThenNextReadQuarantines)
{
    const ArtifactStore store(freshRoot("torn"));
    const std::uint64_t quarantined_before =
        counterValue("store.quarantined");
    {
        ScopedFaultPlan plan(
            storeProbePlan("store.torn_write", "t.bin"));
        // The torn write models a lying disk: the commit itself
        // claims success.
        const Status written =
            store.write("t.bin", "test-kind", binaryPayload());
        EXPECT_TRUE(written.isOk()) << written.message();
        EXPECT_TRUE(store.exists("t.bin"));
        // A differently named artifact is keyed differently: clean.
        ASSERT_TRUE(
            store.write("other.bin", "test-kind", "fine").isOk());
    }
    // The corruption is caught by the first read's verification,
    // never trusted, never crashing.
    auto result = store.read("t.bin", "test-kind");
    ASSERT_FALSE(result.isOk());
    EXPECT_NE(result.message().find("quarantined"), std::string::npos);
    EXPECT_EQ(counterValue("store.quarantined"), quarantined_before + 1);
    auto other = store.read("other.bin", "test-kind");
    ASSERT_TRUE(other.isOk()) << other.message();
    EXPECT_EQ(other.value(), "fine");
}

/** fsync_fail and rename_fail abort identically: error Status, final
 *  path untouched, no temp litter, store.write_failures counted. */
void
expectAbortedWrite(const std::string &probe)
{
    const ArtifactStore store(freshRoot("abort_" + probe.substr(6)));
    ASSERT_TRUE(store.write("a.bin", "test-kind", "original").isOk());

    const std::uint64_t failures_before =
        counterValue("store.write_failures");
    {
        ScopedFaultPlan plan(storeProbePlan(probe, "a.bin"));
        const Status written =
            store.write("a.bin", "test-kind", "replacement");
        ASSERT_FALSE(written.isOk()) << probe;
        EXPECT_NE(written.message().find(probe), std::string::npos)
            << written.message();
    }
    EXPECT_EQ(counterValue("store.write_failures"), failures_before + 1)
        << probe;

    // The prior committed artifact is untouched and no temp file
    // survived the abort.
    auto back = store.read("a.bin", "test-kind");
    ASSERT_TRUE(back.isOk()) << probe << ": " << back.message();
    EXPECT_EQ(back.value(), "original") << probe;
    EXPECT_EQ(filesUnder(store.root()).size(), 1u) << probe;

    // Disarmed, the replacement commits.
    ASSERT_TRUE(
        store.write("a.bin", "test-kind", "replacement").isOk())
        << probe;
    EXPECT_EQ(store.read("a.bin", "test-kind").value(), "replacement")
        << probe;
}

TEST(StoreFaults, FsyncFailAbortsTheWrite)
{
    expectAbortedWrite("store.fsync_fail");
}

TEST(StoreFaults, RenameFailAbortsTheWrite)
{
    expectAbortedWrite("store.rename_fail");
}

// ---------------------------------------------------------------------
// The run journal.
// ---------------------------------------------------------------------

/** A one-counter delta under the registry's free-form t. prefix. */
telemetry::Snapshot
oneUnitDelta()
{
    telemetry::Snapshot delta;
    delta.counters.push_back({"t.journal.units", "units", true, 1});
    return delta;
}

/** The record of unit `id` when it replays under `key`. */
std::optional<std::string>
replayedRecord(const UnitJournal &journal, const std::string &id,
               std::uint64_t key)
{
    std::string record;
    const Status loaded =
        journal.loadUnit(id, key, [&record](const std::string &r) {
            record = r;
            return Status::ok();
        });
    if (!loaded)
        return std::nullopt;
    return record;
}

TEST(UnitJournal, UnitsRoundTripAndApplyTheirDelta)
{
    const UnitJournal journal(freshRoot("journal"));
    const std::string unit_id = "NBest-90_n64_b3";

    EXPECT_FALSE(journal.hasUnit(unit_id));
    EXPECT_EQ(replayedRecord(journal, unit_id, 7), std::nullopt);

    ASSERT_TRUE(
        journal.saveUnit(unit_id, 7, binaryPayload(), oneUnitDelta())
            .isOk());
    EXPECT_TRUE(journal.hasUnit(unit_id));
    // Committing a unit applies nothing; replaying it applies its
    // delta once.
    const std::uint64_t before = counterValue("t.journal.units");
    EXPECT_EQ(replayedRecord(journal, unit_id, 7), binaryPayload());
    EXPECT_EQ(counterValue("t.journal.units"), before + 1);
}

TEST(UnitJournal, RefusedUnitsApplyNothing)
{
    const UnitJournal journal(freshRoot("journal_refused"));
    ASSERT_TRUE(
        journal.saveUnit("u0", 7, "record", oneUnitDelta()).isOk());
    const std::uint64_t before = counterValue("t.journal.units");
    bool decoded = false;
    const auto refuse = [&decoded](const std::string &) {
        decoded = true;
        return Status::error("refused");
    };

    // Another key: refused before the record is decoded.
    EXPECT_FALSE(journal.loadUnit("u0", 8, refuse).isOk());
    EXPECT_FALSE(decoded);
    // The caller refuses the record: the delta is not applied.
    EXPECT_FALSE(journal.loadUnit("u0", 7, refuse).isOk());
    EXPECT_TRUE(decoded);
    EXPECT_EQ(counterValue("t.journal.units"), before);
    // Neither refusal quarantined the intact unit.
    EXPECT_EQ(replayedRecord(journal, "u0", 7), "record");
    EXPECT_EQ(counterValue("t.journal.units"), before + 1);

    // A verified frame whose envelope does not parse.
    ASSERT_TRUE(journal.store()
                    .write(UnitJournal::unitFileName("u1"),
                           UnitJournal::kUnitKind, "short")
                    .isOk());
    EXPECT_EQ(replayedRecord(journal, "u1", 7), std::nullopt);
}

TEST(UnitJournal, UnitOfAnotherKindIsRefusedWithoutQuarantine)
{
    // A unit an older build committed under its own kind tag: refused
    // with its bytes intact, then recomputed over once.
    const UnitJournal journal(freshRoot("journal_kind"));
    const std::string name = UnitJournal::unitFileName("u0");
    ASSERT_TRUE(journal.store().write(name, "run-unit-v1", "old").isOk());
    const std::uint64_t quarantined_before =
        counterValue("store.quarantined");

    EXPECT_EQ(replayedRecord(journal, "u0", 7), std::nullopt);
    EXPECT_TRUE(journal.hasUnit("u0"));
    EXPECT_EQ(counterValue("store.quarantined"), quarantined_before);

    ASSERT_TRUE(
        journal.saveUnit("u0", 7, "record", oneUnitDelta()).isOk());
    EXPECT_EQ(replayedRecord(journal, "u0", 7), "record");
}

TEST(UnitJournal, UnitFileNamesAreSanitizedAndDistinct)
{
    EXPECT_EQ(UnitJournal::unitFileName("NBest-90_n64_b3"),
              "units/NBest-90_n64_b3.bin");
    EXPECT_EQ(UnitJournal::unitFileName("a/b c!"), "units/a_b_c_.bin");
    EXPECT_NE(UnitJournal::unitFileName("x1"),
              UnitJournal::unitFileName("x2"));
}

TEST(UnitJournal, CorruptUnitIsQuarantinedAndRecomputedAsMissing)
{
    const UnitJournal journal(freshRoot("journal_corrupt"));
    ASSERT_TRUE(
        journal.saveUnit("u0", 7, "unit record", oneUnitDelta()).isOk());
    writeFileBytes(
        journal.store().pathOf(UnitJournal::unitFileName("u0")),
        "scribble");

    const std::uint64_t before = counterValue("t.journal.units");
    EXPECT_EQ(replayedRecord(journal, "u0", 7), std::nullopt);
    // Quarantined by the store, so the caller recomputes it exactly
    // like a unit that was never committed; nothing is applied.
    EXPECT_FALSE(journal.hasUnit("u0"));
    EXPECT_EQ(counterValue("t.journal.units"), before);

    // The recomputed unit commits over the now-vacant name.
    ASSERT_TRUE(
        journal.saveUnit("u0", 7, "recomputed", oneUnitDelta()).isOk());
    EXPECT_EQ(replayedRecord(journal, "u0", 7), "recomputed");
}

TEST(UnitJournal, UnitReplayedBeforeAnyInferenceIsHeldToTheTable)
{
    // InferenceEngine registers dnn.infer.* on its first inference, so
    // a resumed run can replay a unit naming them before they are
    // registered. The journal is written in a child process, leaving
    // this one with no inference run.
    ExperimentContext ctx(miniSetup());
    const std::vector<Utterance> utts =
        ctx.corpus.sampleUtterances(20, 4242);
    const SystemConfig config =
        ctx.setup.configFor(SearchMode::Baseline, PruneLevel::None);
    UnitJournal journal(freshRoot("journal_replay_first"));
    EXPECT_EXIT(
        {
            ctx.system.runTestSet(utts, config, 2, &journal);
            std::exit(0);
        },
        testing::ExitedWithCode(0), "");
    ASSERT_EQ(telemetry::MetricRegistry::global().snapshot().findHistogram(
                  "dnn.infer.window_frames"),
              nullptr);

    // Unit 0 of 3 as a build registering dnn.infer.window_frames over
    // [0, 256) would have written it: a same-length edit, recommitted
    // so that its CRC verifies. Unit 2 is lost, so the resume
    // recomputes it after unit 0 has had its turn.
    const auto unitName = [&](int batch) {
        return UnitJournal::unitFileName(config.label() + "_n20_b" +
                                         std::to_string(batch));
    };
    auto payload =
        journal.store().read(unitName(0), UnitJournal::kUnitKind);
    ASSERT_TRUE(payload.isOk()) << payload.message();
    std::string edited = payload.value();
    const std::string range = "\"lo\": 0, \"hi\": 128,";
    const auto at = edited.find(range);
    ASSERT_NE(at, std::string::npos);
    edited.replace(at, range.size(), "\"lo\": 0, \"hi\": 256,");
    ASSERT_TRUE(journal.store()
                    .write(unitName(0), UnitJournal::kUnitKind, edited)
                    .isOk());
    ASSERT_TRUE(fs::remove(journal.store().pathOf(unitName(2))));

    const std::uint64_t resumed_before =
        counterValue("store.resumed_units");
    const TestSetResult resumed =
        ctx.system.runTestSet(utts, config, 2, &journal);
    // Unit 0 was refused and recomputed; only unit 1 replayed.
    EXPECT_EQ(counterValue("store.resumed_units"), resumed_before + 1);

    const TestSetResult plain = ctx.system.runTestSet(utts, config);
    EXPECT_EQ(resumed.outcomes, plain.outcomes);
    EXPECT_EQ(resumed.frames, plain.frames);
    EXPECT_EQ(resumed.survivors, plain.survivors);
    EXPECT_EQ(resumed.generated, plain.generated);
    EXPECT_EQ(resumed.wer.substitutions, plain.wer.substitutions);
    EXPECT_EQ(resumed.wer.insertions, plain.wer.insertions);
    EXPECT_EQ(resumed.wer.deletions, plain.wer.deletions);
    EXPECT_DOUBLE_EQ(resumed.meanConfidence, plain.meanConfidence);
    EXPECT_DOUBLE_EQ(resumed.totalJoules(), plain.totalJoules());
    const telemetry::Snapshot after =
        telemetry::MetricRegistry::global().snapshot();
    const auto *window = after.findHistogram("dnn.infer.window_frames");
    ASSERT_NE(window, nullptr);
    EXPECT_EQ(window->hi, 128.0);
}

// ---------------------------------------------------------------------
// Snapshot JSON round-trip, deltas, and replay via apply().
// ---------------------------------------------------------------------

TEST(SnapshotJson, ParseJsonInvertsToJson)
{
    telemetry::MetricRegistry reg;
    reg.counter("t.count", "items").add(41);
    reg.counter("t.noisy", "items", false).add(3);
    reg.setGauge("t.gauge", "ratio", 0.375);
    telemetry::HistogramSpec spec;
    spec.lo = 0.0;
    spec.hi = 10.0;
    spec.buckets = 4;
    auto hist = reg.histogram("t.hist", "s", spec);
    hist.observe(2.5);
    hist.observe(7.5);
    hist.observe(-1.0); // underflow
    hist.observe(99.0); // overflow

    const auto snap = reg.snapshot();
    auto parsed = telemetry::Snapshot::parseJson(snap.toJson());
    ASSERT_TRUE(parsed.isOk()) << parsed.message();
    // Exporters sort and print with a fixed format, so equality of
    // the re-serialization is equality of every sample.
    EXPECT_EQ(parsed.value().toJson(), snap.toJson());

    EXPECT_FALSE(telemetry::Snapshot::parseJson("not json").isOk());
    EXPECT_FALSE(
        telemetry::Snapshot::parseJson("{\"schema\": \"wrong\"}")
            .isOk());
}

TEST(SnapshotDelta, ApplyReplaysCountersAndHistogramsExactly)
{
    telemetry::HistogramSpec spec;
    spec.lo = 0.0;
    spec.hi = 8.0;
    spec.buckets = 4;

    telemetry::MetricRegistry source;
    auto count = source.counter("r.count", "items");
    auto zero = source.counter("r.zero", "items");
    (void)zero; // registered but never incremented
    auto hist = source.histogram("r.hist", "s", spec);
    count.add(5);
    hist.observe(1.0);
    const auto before = source.snapshot();
    count.add(7);
    hist.observe(3.0);
    hist.observe(5.0);
    source.setGauge("r.gauge", "ratio", 1.5);
    const auto after = source.snapshot();

    const auto delta = after.deltaSince(before);
    const auto *dc = delta.findCounter("r.count");
    ASSERT_NE(dc, nullptr);
    EXPECT_EQ(dc->value, 7u);
    // Zero-growth metrics keep their registration in the delta.
    ASSERT_NE(delta.findCounter("r.zero"), nullptr);
    EXPECT_EQ(delta.findCounter("r.zero")->value, 0u);
    const auto *dh = delta.findHistogram("r.hist");
    ASSERT_NE(dh, nullptr);
    EXPECT_EQ(dh->count, 2u);
    // Gauges are never replayed.
    EXPECT_EQ(delta.findGauge("r.gauge"), nullptr);

    // A replica that ran the prefix replays the delta and lands on
    // the source's exact counter and bucket state.
    telemetry::MetricRegistry replica;
    auto rcount = replica.counter("r.count", "items");
    auto rhist = replica.histogram("r.hist", "s", spec);
    rcount.add(5);
    rhist.observe(1.0);
    ASSERT_TRUE(replica.apply(delta).isOk());

    const auto replayed = replica.snapshot();
    EXPECT_EQ(replayed.findCounter("r.count")->value, 12u);
    ASSERT_NE(replayed.findCounter("r.zero"), nullptr);
    const auto *rh = replayed.findHistogram("r.hist");
    ASSERT_NE(rh, nullptr);
    const auto *sh = after.findHistogram("r.hist");
    ASSERT_NE(sh, nullptr);
    EXPECT_EQ(rh->count, sh->count);
    EXPECT_EQ(rh->buckets, sh->buckets);
    EXPECT_EQ(rh->underflow, sh->underflow);
    EXPECT_EQ(rh->overflow, sh->overflow);
    EXPECT_DOUBLE_EQ(rh->min, sh->min);
    EXPECT_DOUBLE_EQ(rh->max, sh->max);
}

TEST(SnapshotJson, ParseJsonRejectsAnEmptyHistogramRange)
{
    telemetry::MetricRegistry reg;
    reg.histogram("r.hist", "s", {0.0, 8.0, 4}).observe(1.0);
    std::string json = reg.snapshot().toJson();
    const std::string range = "\"lo\": 0, \"hi\": 8";
    const auto at = json.find(range);
    ASSERT_NE(at, std::string::npos) << json;
    json.replace(at, range.size(), "\"lo\": 8, \"hi\": 8");
    const auto parsed = telemetry::Snapshot::parseJson(json);
    ASSERT_FALSE(parsed.isOk());
    EXPECT_NE(parsed.message().find("r.hist"), std::string::npos)
        << parsed.message();
}

TEST(SnapshotDelta, ApplyRefusesADisagreeingDeltaWhole)
{
    const telemetry::HistogramSpec spec{0.0, 8.0, 4};
    telemetry::MetricRegistry source;
    source.counter("r.count", "items").add(3);
    source.counter("r.new", "items").add(1);
    source.histogram("r.hist", "s", spec).observe(1.0);
    const telemetry::Snapshot good =
        source.snapshot().deltaSince(telemetry::Snapshot{});

    telemetry::MetricRegistry reg;
    reg.counter("r.count", "items").add(5);
    reg.histogram("r.hist", "s", spec).observe(2.0);
    const std::string before = reg.snapshot().toJson();

    // A table histogram new to `reg`, as a unit replayed before its
    // producer's first registration (InferenceEngine registers
    // dnn.infer.* on its first inference) carries it, at another range.
    telemetry::MetricRegistry producer;
    producer.histogram("dnn.infer.window_frames", "frames", {0.0, 128.0, 32})
        .observe(16.0);
    telemetry::HistogramSample window =
        producer.snapshot().histograms.front();
    window.hi = 256.0;

    using Edit = std::function<void(telemetry::Snapshot &)>;
    const auto counter = [](telemetry::Snapshot &d) -> auto & {
        return d.counters.front(); // r.count
    };
    const std::vector<Edit> edits = {
        [&](auto &d) { counter(d).unit = "things"; },
        [&](auto &d) { counter(d).deterministic = false; },
        [](auto &d) { d.histograms.front().hi = 16.0; },
        [](auto &d) { d.histograms.front().buckets.resize(8); },
        // New names are held to the metric table instead.
        [](auto &d) {
            d.counters.push_back({"search.frames", "framez", true, 1});
        },
        [](auto &d) {
            d.counters.push_back({"serve.chunk", "chunks", false, 1});
        },
        [&](auto &d) { d.histograms.push_back(window); },
    };
    for (std::size_t i = 0; i < edits.size(); ++i) {
        telemetry::Snapshot delta = good;
        edits[i](delta);
        EXPECT_FALSE(reg.apply(delta).isOk()) << "edit " << i;
        // Not even the well-formed r.new got registered.
        EXPECT_EQ(reg.snapshot().toJson(), before) << "edit " << i;
    }
    EXPECT_TRUE(reg.apply(good).isOk());
    EXPECT_EQ(reg.snapshot().findCounter("r.count")->value, 8u);
}

TEST(SnapshotDelta, WithoutPrefixesDropsWholeNamespaces)
{
    telemetry::MetricRegistry reg;
    reg.counter("store.writes", "artifacts").add(1);
    reg.counter("fault.injected", "faults").add(1);
    reg.counter("search.frames", "frames").add(1);
    const auto filtered =
        reg.snapshot().withoutPrefixes({"store.", "fault."});
    EXPECT_EQ(filtered.findCounter("store.writes"), nullptr);
    EXPECT_EQ(filtered.findCounter("fault.injected"), nullptr);
    ASSERT_NE(filtered.findCounter("search.frames"), nullptr);
}

// ---------------------------------------------------------------------
// Mlp serialize / trySave.
// ---------------------------------------------------------------------

Mlp
tinyMlp()
{
    Rng rng(7);
    Mlp mlp;
    auto fc1 = std::make_unique<FullyConnected>("FC1", 4, 6);
    fc1->initialize(rng);
    std::vector<std::uint8_t> mask(4 * 6, 1);
    mask[3] = 0;
    mask[17] = 0;
    fc1->setMask(std::move(mask));
    mlp.add(std::move(fc1));
    mlp.add(std::make_unique<PNormPooling>("P1", 6, 3));
    mlp.add(std::make_unique<Renormalize>("N1", 2));
    auto fc2 = std::make_unique<FullyConnected>("FC2", 2, 5);
    fc2->initialize(rng);
    mlp.add(std::move(fc2));
    mlp.add(std::make_unique<Softmax>("SM", 5));
    return mlp;
}

TEST(MlpSerialize, BytesRoundTripBitExactly)
{
    const Mlp original = tinyMlp();
    const std::string bytes = original.serialize();
    auto restored = Mlp::deserialize(bytes, "tiny-model");
    ASSERT_TRUE(restored.isOk()) << restored.message();

    EXPECT_EQ(restored.value().layerCount(), original.layerCount());
    EXPECT_EQ(restored.value().parameterCount(),
              original.parameterCount());
    EXPECT_EQ(restored.value().serialize(), bytes);

    // Bit-exact weights mean bit-identical posteriors.
    const Vector input = {0.25f, -1.5f, 0.75f, 2.0f};
    Vector out_a, out_b;
    original.forward(input, out_a);
    restored.value().forward(input, out_b);
    ASSERT_EQ(out_a.size(), out_b.size());
    for (std::size_t i = 0; i < out_a.size(); ++i)
        EXPECT_EQ(out_a[i], out_b[i]) << i;
}

TEST(MlpSerialize, DeserializeRejectsCorruptBytes)
{
    const std::string bytes = tinyMlp().serialize();

    auto truncated =
        Mlp::deserialize(bytes.substr(0, bytes.size() / 2), "trunc");
    EXPECT_FALSE(truncated.isOk());
    EXPECT_NE(truncated.message().find("trunc"), std::string::npos);

    std::string wrong_magic = bytes;
    wrong_magic[0] ^= 0x01;
    EXPECT_FALSE(Mlp::deserialize(wrong_magic, "magic").isOk());

    EXPECT_FALSE(Mlp::deserialize("", "empty").isOk());
}

TEST(MlpTrySave, ReportsUnwritablePathsAsStatus)
{
    const Mlp mlp = tinyMlp();

    auto missing_dir =
        mlp.trySave(testing::TempDir() + "/no_such_dir/m.bin");
    ASSERT_FALSE(missing_dir.isOk());
    EXPECT_NE(missing_dir.message().find("cannot open"),
              std::string::npos)
        << missing_dir.message();

    // A directory is not a writable file.
    auto is_dir = mlp.trySave(testing::TempDir());
    EXPECT_FALSE(is_dir.isOk());

    // The happy path round-trips through tryLoad.
    const std::string path = testing::TempDir() + "/trysave_ok.bin";
    auto saved = mlp.trySave(path);
    ASSERT_TRUE(saved.isOk()) << saved.message();
    auto loaded = Mlp::tryLoad(path);
    ASSERT_TRUE(loaded.isOk()) << loaded.message();
    EXPECT_EQ(loaded.value().serialize(), mlp.serialize());
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// AcousticScores serialize.
// ---------------------------------------------------------------------

TEST(AcousticScoresSerialize, RoundTripsBitExactly)
{
    const std::vector<Vector> posteriors = {
        {0.70f, 0.20f, 0.10f},
        {0.05f, 0.90f, 0.05f},
        {1.0f / 3.0f, 1.0f / 3.0f, 1.0f / 3.0f},
    };
    const AcousticScores scores =
        AcousticScores::fromPosteriors(posteriors, 0.8f);

    auto restored =
        AcousticScores::deserialize(scores.serialize(), "scores");
    ASSERT_TRUE(restored.isOk()) << restored.message();
    EXPECT_EQ(restored.value().frameCount(), scores.frameCount());
    EXPECT_EQ(restored.value().classCount(), scores.classCount());
    EXPECT_EQ(restored.value().meanConfidence(),
              scores.meanConfidence());
    for (std::size_t f = 0; f < scores.frameCount(); ++f) {
        for (PdfId pdf = 0; pdf < scores.classCount(); ++pdf)
            EXPECT_EQ(restored.value().cost(f, pdf),
                      scores.cost(f, pdf))
                << f << "/" << pdf;
    }
    EXPECT_EQ(restored.value().serialize(), scores.serialize());
}

TEST(AcousticScoresSerialize, DeserializeRejectsMalformedBytes)
{
    const AcousticScores scores =
        AcousticScores::fromPosteriors({{0.5f, 0.5f}}, 1.0f);
    const std::string bytes = scores.serialize();

    EXPECT_FALSE(AcousticScores::deserialize("", "empty").isOk());
    EXPECT_FALSE(
        AcousticScores::deserialize(bytes.substr(0, bytes.size() - 2),
                                    "short")
            .isOk());
    EXPECT_FALSE(
        AcousticScores::deserialize(bytes + "x", "long").isOk());

    // A cost count whose byte size wraps to the payload's (classes 1,
    // count 2 + 2^62): refused, not sized.
    std::string wrapped = bytes;
    const std::uint64_t one = 1, count = 2 + (std::uint64_t{1} << 62);
    std::memcpy(&wrapped[0], &one, sizeof(one));
    std::memcpy(&wrapped[8], &count, sizeof(count));
    EXPECT_FALSE(AcousticScores::deserialize(wrapped, "wrapped").isOk());
}

} // namespace
} // namespace darkside
